"""HTTP request/response over the simulated network.

Models what the study observes on the wire: POST requests with JSON
bodies to the Periscope API, GETs for HLS playlists/segments and chat
avatar images, and the HTTP 429 ("Too many requests") answers that force
the crawler to pace itself.

Headers are not serialized byte-for-byte; a request/response carries a
realistic header byte count plus a structured body, which is what the
capture pipeline and the traffic accounting need.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro import obs
from repro.netsim.connection import Message
from repro.netsim.duplex import DuplexStream
from repro.netsim.events import EventLoop

#: Typical compact HTTP/1.1 header block sizes on the wire.
REQUEST_HEADER_BYTES = 420
RESPONSE_HEADER_BYTES = 310

_request_ids = itertools.count(1)


def request_kind(path: str) -> str:
    """Coarse request class used as a telemetry label (keeps label
    cardinality bounded: broadcast ids and usernames never label)."""
    if path.startswith("/api/"):
        return "api"
    if path.endswith(".m3u8"):
        return "playlist"
    if path.endswith(".ts"):
        return "segment"
    if path.startswith("/avatars/") or "profile-images" in path:
        return "avatar"
    return "other"


class HttpStatus(enum.IntEnum):
    """The status codes this study encounters."""

    OK = 200
    NOT_FOUND = 404
    TOO_MANY_REQUESTS = 429
    SERVICE_UNAVAILABLE = 503


@dataclass
class HttpRequest:
    """One HTTP request (method, path, JSON or opaque body)."""

    method: str
    path: str
    json_body: Optional[Dict[str, Any]] = None
    body_bytes: int = 0
    headers: Dict[str, str] = field(default_factory=dict)
    request_id: int = field(default_factory=lambda: next(_request_ids))

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST", "HEAD"):
            raise ValueError(f"unsupported method {self.method!r}")
        if self.json_body is not None and self.body_bytes == 0:
            self.body_bytes = len(json.dumps(self.json_body, separators=(",", ":")))

    @property
    def nbytes(self) -> int:
        return REQUEST_HEADER_BYTES + self.body_bytes


@dataclass
class HttpResponse:
    """One HTTP response: status, JSON or opaque payload."""

    status: HttpStatus
    json_body: Optional[Dict[str, Any]] = None
    body_bytes: int = 0
    #: Opaque payload object (e.g. a TS segment) delivered to the client.
    payload: Any = None
    request_id: int = -1

    def __post_init__(self) -> None:
        if self.json_body is not None and self.body_bytes == 0:
            self.body_bytes = len(json.dumps(self.json_body, separators=(",", ":")))

    @property
    def nbytes(self) -> int:
        return RESPONSE_HEADER_BYTES + self.body_bytes


#: Server-side hook: (request, client_label) -> response.
RequestHandler = Callable[[HttpRequest, str], HttpResponse]
#: Client-side hook invoked with the response and its arrival time.
ResponseCallback = Callable[[HttpResponse, float], None]


class HttpServer:
    """Serves one handler over one duplex stream (endpoint "b").

    The Periscope backends are modelled as one logical server per role
    (API frontend, CDN edge, avatar store); per-connection state is a
    :class:`HttpServer` attached to the stream of each client.
    """

    def __init__(
        self,
        loop: EventLoop,
        stream: DuplexStream,
        handler: RequestHandler,
        client_label: str = "",
        processing_delay_s: float = 0.004,
    ) -> None:
        self.loop = loop
        self.stream = stream
        self.handler = handler
        self.client_label = client_label
        self.processing_delay_s = processing_delay_s
        self.requests_served = 0
        stream.on_at_b = self._on_request

    def _on_request(self, message: Message, now: float) -> None:
        request = message.payload
        if not isinstance(request, HttpRequest):
            raise TypeError(f"HTTP server got non-request payload {request!r}")

        def respond() -> None:
            response = self.handler(request, self.client_label)
            response.request_id = request.request_id
            self.requests_served += 1
            if self.stream.closed:
                return
            self.stream.send_from_b(
                Message(
                    payload=response,
                    nbytes=response.nbytes,
                    annotations={
                        "protocol": "http",
                        "kind": "response",
                        "status": int(response.status),
                        "path": request.path,
                    },
                )
            )

        self.loop.schedule(self.processing_delay_s, respond)


class HttpClient:
    """Issues requests over one duplex stream (endpoint "a") and matches
    responses to per-request callbacks."""

    def __init__(self, loop: EventLoop, stream: DuplexStream) -> None:
        self.loop = loop
        self.stream = stream
        self._pending: Dict[int, ResponseCallback] = {}
        #: request_id -> (sent sim-time, request kind); only populated
        #: while telemetry is active.
        self._inflight_meta: Dict[int, tuple] = {}
        self.responses_received = 0
        stream.on_at_a = self._on_response

    def request(self, request: HttpRequest, callback: ResponseCallback) -> HttpRequest:
        """Send ``request``; ``callback`` fires when the response lands."""
        self._pending[request.request_id] = callback
        telemetry = obs.active()
        if telemetry.enabled and (telemetry.metrics_on or telemetry.causes_on):
            kind = request_kind(request.path)
            self._inflight_meta[request.request_id] = (self.loop.now, kind)
            if telemetry.metrics_on:
                telemetry.metrics.counter(
                    "http_requests_total", "HTTP requests sent", kind=kind,
                ).inc()
        self.stream.send_from_a(
            Message(
                payload=request,
                nbytes=request.nbytes,
                annotations={
                    "protocol": "http",
                    "kind": "request",
                    "method": request.method,
                    "path": request.path,
                },
            )
        )
        return request

    def _on_response(self, message: Message, now: float) -> None:
        response = message.payload
        if not isinstance(response, HttpResponse):
            raise TypeError(f"HTTP client got non-response payload {response!r}")
        callback = self._pending.pop(response.request_id, None)
        self.responses_received += 1
        telemetry = obs.active()
        if telemetry.enabled and (telemetry.metrics_on or telemetry.causes_on):
            meta = self._inflight_meta.pop(response.request_id, None)
            kind = meta[1] if meta else "other"
            if telemetry.metrics_on:
                metrics = telemetry.metrics
                metrics.counter(
                    "http_responses_total", "HTTP responses by status",
                    status=int(response.status), kind=kind,
                ).inc()
                if response.status == HttpStatus.TOO_MANY_REQUESTS:
                    metrics.counter(
                        "http_429_total", "Rate-limited responses", kind=kind,
                    ).inc()
                if meta is not None:
                    metrics.histogram(
                        "http_request_latency_seconds",
                        "Request send to response arrival (simulated)",
                        kind=kind,
                    ).observe(now - meta[0])
            if (telemetry.causes_on and meta is not None
                    and response.status == HttpStatus.TOO_MANY_REQUESTS):
                # A 429 burns a full round trip before any retry logic
                # even starts; attribute that latency to rate limiting.
                telemetry.causes.add("http.rate_limit", now - meta[0])
        if callback is not None:
            callback(response, now)

    @property
    def outstanding(self) -> int:
        """Requests awaiting a response."""
        return len(self._pending)
