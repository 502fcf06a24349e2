"""The measurement pipeline: reconstruction and inspection.

Mirrors the paper's tooling stack:

* :mod:`repro.capture.reconstruct` — TCP stream reassembly and media
  extraction from tether captures (wireshark: "follow TCP stream",
  HTTP GET → MPEG-TS segment isolation, RTMP dissection);
* :mod:`repro.capture.inspector` — media inspection of reconstructed
  streams: bitrate, average QP, frame rate, frame-type patterns,
  segment durations (libav).
"""

from repro.capture.reconstruct import (
    ReassembledStream,
    extract_hls_segments,
    extract_rtmp_frames,
    reassemble_flows,
)
from repro.capture.inspector import MediaReport, classify_gop, inspect_frames

__all__ = [
    "ReassembledStream",
    "extract_hls_segments",
    "extract_rtmp_frames",
    "reassemble_flows",
    "MediaReport",
    "classify_gop",
    "inspect_frames",
]
