"""Stream reconstruction from tether captures (the wireshark step).

Two fidelity levels, matching what the sender put on the wire:

* **byte fidelity** — packets carry real byte slices (the sender set
  ``Message.data``); flows are reassembled into the original byte
  streams and dissected with the real parsers (RTMP chunk parser,
  MPEG-TS demuxer);
* **token fidelity** — packets carry message annotations, as every
  session sends them; the same extraction is driven off message
  boundaries (payload objects and the sender's sizes come through
  as sent, parsing is skipped).  An HLS segment's sent size is an
  estimate of its MPEG-TS size (see ``service.delivery``).

Either way the output is identical in kind to the paper's: per-flow
media frames for RTMP, and isolated ``.ts`` segments for HLS ("saving
the response of the HTTP GET request, which contains an MPEG-TS file
ready to be played").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.media.frames import AudioFrame, EncodedFrame
from repro.media.segmenter import HlsSegment
from repro.netsim.packet import PacketRecord
from repro.netsim.trace import TraceCapture
from repro.protocols.rtmp import ChunkParser, RtmpMessageType, media_frame_of

MediaFrame = Union[EncodedFrame, AudioFrame]


@dataclass
class ReassembledStream:
    """One direction of one TCP flow, reassembled."""

    flow_id: int
    direction: str
    total_payload_bytes: int
    #: Contiguous byte stream (byte-fidelity captures only).
    data: Optional[bytes]
    #: Message-boundary records: (timestamp of completion, annotations).
    messages: List[Tuple[float, dict]] = field(default_factory=list)
    first_seen: float = 0.0
    last_seen: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.last_seen - self.first_seen

    def average_rate_bps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.total_payload_bytes * 8.0 / self.duration_s


def reassemble_flows(capture: TraceCapture) -> Dict[Tuple[int, str], ReassembledStream]:
    """Group capture records by (flow, direction) and reassemble.

    Ordering uses sequence numbers (as TCP reassembly does); with the
    simulator's lossless FIFO paths capture order already matches, but we
    sort anyway so the function is honest about its contract.
    """
    grouped: Dict[Tuple[int, str], List[PacketRecord]] = {}
    for record in capture.records:
        if record.is_ack:
            continue
        grouped.setdefault((record.flow_id, record.direction), []).append(record)
    streams: Dict[Tuple[int, str], ReassembledStream] = {}
    for key, records in grouped.items():
        records.sort(key=lambda r: r.seq)
        chunks = [r.chunk for r in records]
        data = b"".join(c for c in chunks if c is not None) if any(
            c is not None for c in chunks
        ) else None
        messages = []
        for record in records:
            # The final packet of each message carries the payload object.
            message = record.annotation("_message")
            if message is not None:
                messages.append((record.timestamp, dict(record.annotations)))
        streams[key] = ReassembledStream(
            flow_id=key[0],
            direction=key[1],
            total_payload_bytes=sum(r.payload_bytes for r in records),
            data=data,
            messages=messages,
            first_seen=records[0].timestamp,
            last_seen=records[-1].timestamp,
        )
    return streams


def extract_rtmp_frames(
    stream: ReassembledStream,
) -> List[Tuple[float, MediaFrame]]:
    """Recover (arrival_time, frame) pairs from an RTMP flow.

    Byte-fidelity streams are dissected with the chunk parser (the
    wireshark RTMP dissector); token streams are read off message
    boundaries.
    """
    frames: List[Tuple[float, MediaFrame]] = []
    token_frames = [
        (t, ann) for t, ann in stream.messages if ann.get("protocol") == "rtmp"
    ]
    if token_frames:
        for timestamp, annotations in token_frames:
            message = annotations.get("_message")
            if message is not None and isinstance(
                message.payload, (EncodedFrame, AudioFrame)
            ):
                frames.append((timestamp, message.payload))
        return frames
    if stream.data is not None:
        parser = ChunkParser()
        for rtmp_message in parser.feed(stream.data):
            if rtmp_message.msg_type in (RtmpMessageType.AUDIO, RtmpMessageType.VIDEO):
                frames.append((stream.last_seen, media_frame_of(rtmp_message)))
        return frames
    return frames


def extract_hls_segments(
    stream: ReassembledStream,
) -> List[Tuple[float, HlsSegment]]:
    """Isolate the MPEG-TS segments an HLS flow fetched.

    Token captures hand back the segment payload objects; byte captures
    would additionally allow :func:`repro.protocols.mpegts.demux_segment`
    on each response body (exercised in the byte-fidelity tests).
    """
    segments: List[Tuple[float, HlsSegment]] = []
    for timestamp, annotations in stream.messages:
        if annotations.get("protocol") != "http" or annotations.get("kind") != "response":
            continue
        path = annotations.get("path", "")
        if not str(path).endswith(".ts"):
            continue
        message = annotations.get("_message")
        if message is None:
            continue
        response = message.payload
        payload = getattr(response, "payload", None)
        if isinstance(payload, HlsSegment):
            segments.append((timestamp, payload))
    return segments


def classify_flows(
    streams: Dict[Tuple[int, str], ReassembledStream],
) -> Dict[str, List[ReassembledStream]]:
    """Split reassembled flows by protocol, like the paper's first pass
    over a capture."""
    buckets: Dict[str, List[ReassembledStream]] = {
        "rtmp": [], "http": [], "websocket": [], "other": [],
    }
    for stream in streams.values():
        protocols = {ann.get("protocol") for _, ann in stream.messages}
        if "rtmp" in protocols:
            buckets["rtmp"].append(stream)
        elif "http" in protocols:
            buckets["http"].append(stream)
        elif "websocket" in protocols:
            buckets["websocket"].append(stream)
        else:
            buckets["other"].append(stream)
    return buckets
