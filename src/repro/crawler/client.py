"""Crawler transport: emulator identities talking to the API over the
simulated network.

Each identity is one Genymotion emulator with its own login — its own
HTTP stream and, crucially, its own rate-limit bucket (running four of
them in parallel is how the paper got the targeted crawl under a minute
per round).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.faults.retry import CRAWLER_RETRY, RetrySchedule
from repro.netsim.duplex import DuplexStream
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.protocols.http import (
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    HttpStatus,
)
from repro.service.api import API_PATH, ApiServer, RateLimiter
from repro.service.geo import GeoPoint, GeoRect
from repro.service.ingest import IngestPool
from repro.service.world import ServiceWorld, WorldParameters
from repro.util.rng import child_rng

#: Emulators sat in Finland next to the phones.
CRAWLER_LOCATION = GeoPoint(60.2, 24.9)

#: Spacing between successful requests of one identity (the paper's
#: pacing, what pushes a deep crawl beyond 10 minutes).
CRAWL_PACE_S = 0.85

ApiCallback = Callable[[HttpResponse, float], None]


class CrawlClient:
    """One crawler identity: issues apiRequest commands, honours 429s.

    Throttled (429) and unavailable (503) responses are retried per
    :data:`~repro.faults.retry.CRAWLER_RETRY` — the first retry keeps
    the historical 2 s backoff, later ones double up to a cap, and a
    permanently failing service terminates the call after
    ``max_attempts`` with the final error response handed to the
    callback.  Callers space successful requests :data:`CRAWL_PACE_S`
    apart.
    """

    def __init__(self, loop: EventLoop, http: HttpClient, identity: str) -> None:
        self.loop = loop
        self.http = http
        self.identity = identity
        self.requests_sent = 0
        self.throttled = 0
        self.retries = 0
        self.gave_up = 0

    def call(self, command: str, payload: Dict[str, Any], callback: ApiCallback) -> None:
        """Issue one API command now (no pacing — callers schedule)."""
        body = {"request": command}
        body.update(payload)
        schedule = RetrySchedule(CRAWLER_RETRY, started_at=self.loop.now)

        def send() -> None:
            self.requests_sent += 1
            self.http.request(
                HttpRequest("POST", API_PATH, json_body=body), on_response
            )

        def on_response(response: HttpResponse, now: float) -> None:
            if response.status in (
                HttpStatus.TOO_MANY_REQUESTS, HttpStatus.SERVICE_UNAVAILABLE
            ):
                if response.status == HttpStatus.TOO_MANY_REQUESTS:
                    self.throttled += 1
                delay = schedule.next_delay(now)
                if delay is None:
                    # Bounded give-up: surface the error instead of
                    # retrying forever (the old constant-backoff loop
                    # never terminated against a permanently-429ing
                    # service).
                    self.gave_up += 1
                    callback(response, now)
                    return
                self.retries += 1
                telemetry = obs.active()
                if telemetry.enabled and telemetry.metrics_on:
                    telemetry.metrics.counter(
                        "retries_total", "Client retry attempts",
                        kind="crawler-api", identity=self.identity,
                    ).inc()
                self.loop.schedule(delay, send)
                return
            callback(response, now)

        send()

    def map_query(self, rect: GeoRect, callback: ApiCallback) -> None:
        """One /mapGeoBroadcastFeed for ``rect`` (live only)."""
        self.call(
            "mapGeoBroadcastFeed",
            {
                "p1_lat": rect.south,
                "p1_lng": rect.west,
                "p2_lat": rect.north,
                "p2_lng": rect.east,
                "include_replay": False,
            },
            callback,
        )

    def get_broadcasts(self, ids: List[str], callback: ApiCallback) -> None:
        """One /getBroadcasts for up to ~100 ids."""
        self.call("getBroadcasts", {"broadcast_ids": ids}, callback)


class CrawlHarness:
    """World + API + N crawler identities on one event loop."""

    def __init__(
        self,
        seed: int,
        mean_concurrent: int = 2500,
        identities: int = 1,
        rate_limiter: Optional[RateLimiter] = None,
    ) -> None:
        self.loop = EventLoop()
        self.world = ServiceWorld(
            WorldParameters(mean_concurrent=mean_concurrent), seed=seed
        )
        self.api = ApiServer(
            self.world,
            IngestPool(child_rng(seed, "crawl-ingest")),
            clock=lambda: self.loop.now,
            rng=child_rng(seed, "crawl-api"),
            rate_limiter=rate_limiter or RateLimiter(),
        )
        net = Network(self.loop)
        emulator = net.host("emulator")
        api_host = net.host("api")
        net.duplex(emulator, api_host, rate_bps=100e6, delay_s=0.040)
        self.clients: List[CrawlClient] = []
        for index in range(identities):
            stream = DuplexStream(
                self.loop, net, "emulator", "api", name=f"crawler-{index}"
            )
            identity = f"crawler-{index}"
            HttpServer(self.loop, stream, self.api.handle, client_label=identity,
                       processing_delay_s=0.020)
            self.clients.append(
                CrawlClient(self.loop, HttpClient(self.loop, stream), identity)
            )

    def run_until(self, t: float) -> None:
        self.loop.run_until(t)
