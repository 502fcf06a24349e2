"""Wire protocols of the Periscope service.

* :mod:`repro.protocols.http` — HTTP/1.1-shaped request/response over the
  simulated network, including status 429 rate-limit answers and the JSON
  API message bodies.
* :mod:`repro.protocols.rtmp` — RTMP-like chunked push streaming; each
  media message body is an FLV tag body (codec marker byte + frame).
* :mod:`repro.protocols.mpegts` — real MPEG-TS (ISO 13818-1) packetization
  used by HLS segments: 188-byte packets, PAT/PMT, PES with PTS.
* :mod:`repro.protocols.hls` — M3U8 playlists and live-window segment
  delivery over HTTP.
* :mod:`repro.protocols.websocket` — frame sizes and JSON messages of the
  chat channel.
"""

from repro.protocols.http import (
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    HttpStatus,
)

__all__ = [
    "HttpClient",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "HttpStatus",
]
