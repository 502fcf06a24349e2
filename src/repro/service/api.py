"""The private Periscope API (Table 1) and its rate limiting.

All app-server interaction goes through POSTs of JSON bodies to
``/api/v2/apiRequest``.  The commands the study uses:

=====================  ==========================================  =========================================
API request            request contents                            response contents
=====================  ==========================================  =========================================
mapGeoBroadcastFeed    coordinates of a rectangular area           list of broadcasts inside the area
getBroadcasts          list of 13-character broadcast ids          descriptions (incl. number of viewers)
playbackMeta           playback statistics                         nothing
=====================  ==========================================  =========================================

plus ``accessVideo``, the call that resolves a broadcast to its delivery
endpoint (RTMP ingest server or HLS playlist URL) — the paper exercised
it implicitly whenever a viewing session started.

Too-frequent requests are answered with HTTP 429 ("Too many requests"),
which is what forces the paper's crawler to pace itself and run four
crawler identities in parallel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.protocols.http import HttpRequest, HttpResponse, HttpStatus
from repro.service.broadcast import Broadcast
from repro.service.geo import GeoRect
from repro.service.ingest import CDN_EDGES, IngestPool
from repro.service.selection import DeliveryProtocol, select_protocol
from repro.service.world import ServiceWorld

API_PATH = "/api/v2/apiRequest"


class ApiError(Exception):
    """Raised for malformed API requests (the server answers 404/400)."""


class RateLimiter:
    """Per-identity token bucket, the 429 source.

    Defaults are calibrated so that a single identity replaying map
    queries as fast as the network allows gets throttled to roughly one
    request per second — which stretches a deep crawl past 10 minutes,
    as the paper reports.
    """

    def __init__(self, rate_per_s: float = 1.2, burst: int = 8) -> None:
        if rate_per_s <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst >= 1")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens: Dict[str, float] = {}
        self._updated: Dict[str, float] = {}
        self.throttled_count = 0

    def allow(self, identity: str, now: float) -> bool:
        """Consume one token for ``identity``; False means throttle."""
        tokens = self._tokens.get(identity, float(self.burst))
        last = self._updated.get(identity, now)
        tokens = min(float(self.burst), tokens + (now - last) * self.rate_per_s)
        self._updated[identity] = now
        if tokens >= 1.0:
            self._tokens[identity] = tokens - 1.0
            return True
        self._tokens[identity] = tokens
        self.throttled_count += 1
        return False


@dataclass
class PlaybackMetaRecord:
    """One playbackMeta upload, as stored server side (and as dumped by
    the study's mitmproxy inline script)."""

    received_at: float
    identity: str
    stats: Dict[str, Any]


class ApiServer:
    """Implements the apiRequest dispatch against a :class:`ServiceWorld`.

    The instance is transport agnostic: :meth:`handle` has the
    :data:`~repro.protocols.http.RequestHandler` signature and can be
    mounted on any number of per-client :class:`HttpServer` instances.
    """

    def __init__(
        self,
        world: ServiceWorld,
        ingest: IngestPool,
        clock: Callable[[], float],
        rng: random.Random,
        rate_limiter: Optional[RateLimiter] = None,
    ) -> None:
        self.world = world
        self.ingest = ingest
        self.clock = clock
        self._rng = rng
        self.rate_limiter = rate_limiter or RateLimiter()
        self.playback_metas: List[PlaybackMetaRecord] = []
        self.requests_handled = 0

    # ------------------------------------------------------------- dispatch

    def handle(self, request: HttpRequest, identity: str) -> HttpResponse:
        """RequestHandler entry point."""
        now = self.clock()
        self.world.advance_to(max(now, self.world.now))
        if request.method != "POST" or request.path != API_PATH:
            return HttpResponse(HttpStatus.NOT_FOUND, json_body={"error": "unknown endpoint"})
        body = request.json_body or {}
        command = body.get("request")
        telemetry = obs.active()
        metrics_on = telemetry.enabled and telemetry.metrics_on
        if not self.rate_limiter.allow(identity or "anonymous", now):
            if metrics_on:
                telemetry.metrics.counter(
                    "api_throttled_total", "apiRequest commands answered 429",
                    command=str(command),
                ).inc()
            return HttpResponse(
                HttpStatus.TOO_MANY_REQUESTS, json_body={"error": "Too many requests"}
            )
        self.requests_handled += 1
        if metrics_on:
            telemetry.metrics.counter(
                "api_commands_total", "apiRequest commands handled",
                command=str(command),
            ).inc()
        try:
            if command == "mapGeoBroadcastFeed":
                return self._map_geo_broadcast_feed(body)
            if command == "getBroadcasts":
                return self._get_broadcasts(body)
            if command == "playbackMeta":
                return self._playback_meta(body, identity, now)
            if command == "accessVideo":
                return self._access_video(body)
        except ApiError as error:
            return HttpResponse(HttpStatus.NOT_FOUND, json_body={"error": str(error)})
        return HttpResponse(
            HttpStatus.NOT_FOUND, json_body={"error": f"unknown request {command!r}"}
        )

    # ------------------------------------------------------------- commands

    def _map_geo_broadcast_feed(self, body: Dict[str, Any]) -> HttpResponse:
        """The broadcasts :meth:`ServiceWorld.query_map` finds in the
        requested rectangle.

        The map lists live broadcasts only, so the request's
        ``include_replay`` flag is ignored.
        """
        try:
            rect = GeoRect(
                south=float(body["p1_lat"]),
                west=float(body["p1_lng"]),
                north=float(body["p2_lat"]),
                east=float(body["p2_lng"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ApiError(f"bad coordinates: {exc}") from exc
        broadcasts = self.world.query_map(rect)
        return HttpResponse(
            HttpStatus.OK,
            json_body={
                "broadcasts": [
                    self._map_entry(broadcast) for broadcast in broadcasts
                ]
            },
        )

    def _map_entry(self, broadcast: Broadcast) -> Dict[str, Any]:
        """The abbreviated description map responses carry."""
        return {
            "id": broadcast.broadcast_id,
            "ip_lat": round(broadcast.location.lat, 4),
            "ip_lng": round(broadcast.location.lon, 4),
            "state": "RUNNING",
        }

    def _get_broadcasts(self, body: Dict[str, Any]) -> HttpResponse:
        ids = body.get("broadcast_ids")
        if not isinstance(ids, list):
            raise ApiError("broadcast_ids must be a list")
        descriptions = []
        for broadcast_id in ids:
            broadcast = self.world.get_broadcast(str(broadcast_id))
            if broadcast is not None:
                descriptions.append(broadcast.description(self.world.now))
        return HttpResponse(HttpStatus.OK, json_body={"broadcasts": descriptions})

    def _playback_meta(
        self, body: Dict[str, Any], identity: str, now: float
    ) -> HttpResponse:
        stats = body.get("stats")
        if not isinstance(stats, dict):
            raise ApiError("stats must be an object")
        self.playback_metas.append(
            PlaybackMetaRecord(received_at=now, identity=identity, stats=stats)
        )
        return HttpResponse(HttpStatus.OK, json_body={})

    def _access_video(self, body: Dict[str, Any]) -> HttpResponse:
        broadcast_id = body.get("broadcast_id")
        broadcast = self.world.get_broadcast(str(broadcast_id))
        if broadcast is None:
            raise ApiError(f"unknown broadcast {broadcast_id!r}")
        protocol = select_protocol(broadcast, self.world.now)
        if protocol == DeliveryProtocol.RTMP:
            server = self.ingest.nearest_to(broadcast.location)
            return HttpResponse(
                HttpStatus.OK,
                json_body={
                    "protocol": "rtmp",
                    "host": f"vidman-{server.region}.periscope.tv",
                    "ip": server.ip,
                    "port": 80,
                    "https": broadcast.is_private,
                },
            )
        return HttpResponse(
            HttpStatus.OK,
            json_body={
                "protocol": "hls",
                "playlist_url": (
                    f"https://cdn.periscope.tv/{broadcast.broadcast_id}/playlist.m3u8"
                ),
                "edges": [edge.ip for edge in CDN_EDGES],
                "port": 443 if broadcast.is_private else 80,
            },
        )
