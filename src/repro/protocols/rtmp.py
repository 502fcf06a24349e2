"""RTMP-like chunked push streaming.

Periscope delivers unpopular broadcasts over RTMP on port 80 straight
from Amazon EC2 ingest servers; its defining property for QoE is that the
server **pushes each frame the moment it exists** — no segmentation, no
client polling — which is why the paper measures sub-300 ms delivery
latency for 75% of RTMP broadcasts.

Two layers live here:

* a byte-level implementation of the RTMP **chunk stream** (format-0
  headers with the 11-byte message header, format-3 continuation chunks,
  configurable chunk size) carrying media messages whose body is an FLV
  tag body: one codec marker byte, then the elementary-stream record —
  enough for the capture pipeline to dissect streams the way wireshark's
  RTMP dissector does; and
* :class:`RtmpPushSession`, the server side that runs the protocol over
  a simulated connection.  It sends each frame's exact chunked size
  without serializing it; the byte-level encoding is the reference that
  size is checked against.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.media.bitstream import (
    FrameStreamParser,
    encode_audio_frame,
    encode_video_frame,
    encoded_audio_size,
    encoded_video_size,
)
from repro.media.frames import AudioFrame, EncodedFrame
from repro.netsim.connection import Connection, Message

#: Default maximum chunk payload negotiated via Set Chunk Size (modern
#: servers immediately raise it from the spec default of 128).
DEFAULT_CHUNK_SIZE = 4096

#: RTMP handshake sizes: C0/S0 are 1 byte, C1/S1/C2/S2 are 1536 bytes.
HANDSHAKE_C0 = 1
HANDSHAKE_C1 = 1536
HANDSHAKE_S0S1S2 = 1 + 1536 + 1536
HANDSHAKE_C2 = 1536

#: TCP port Periscope serves plaintext RTMP on (80, to dodge firewalls).
RTMP_PORT = 80

#: First byte of an FLV video tag body: frame type (1 = key, 2 = inter)
#: << 4 | codec id (7 = AVC).
VIDEO_KEY_MARKER = (1 << 4) | 7
VIDEO_INTER_MARKER = (2 << 4) | 7
#: First byte of an FLV audio tag body: AAC (10) << 4 | 44 kHz (3) << 2
#: | 16-bit (1) << 1 | stereo.
AUDIO_AAC_MARKER = (10 << 4) | (3 << 2) | (1 << 1) | 1


class RtmpMessageType(enum.IntEnum):
    """Message type ids from the RTMP spec (subset the study needs)."""

    SET_CHUNK_SIZE = 1
    USER_CONTROL = 4
    AUDIO = 8
    VIDEO = 9
    DATA_AMF0 = 18
    COMMAND_AMF0 = 20


@dataclass(frozen=True)
class RtmpMessage:
    """One RTMP message prior to chunking."""

    msg_type: RtmpMessageType
    timestamp_ms: int
    payload: bytes
    stream_id: int = 1
    chunk_stream_id: int = 4

    def __post_init__(self) -> None:
        if self.timestamp_ms < 0:
            raise ValueError("timestamp must be non-negative")
        if not 2 <= self.chunk_stream_id <= 63:
            raise ValueError("only single-byte chunk stream ids are supported")


# --------------------------------------------------------------------- chunking


def chunk_message(message: RtmpMessage, chunk_size: int = DEFAULT_CHUNK_SIZE) -> bytes:
    """Serialize one message as a format-0 chunk plus format-3 continuations."""
    if chunk_size <= 0:
        raise ValueError("chunk size must be positive")
    payload = message.payload
    ts = min(message.timestamp_ms, 0xFFFFFF)  # extended timestamps unsupported
    basic0 = bytes([(0 << 6) | message.chunk_stream_id])
    header0 = (
        ts.to_bytes(3, "big")
        + len(payload).to_bytes(3, "big")
        + bytes([int(message.msg_type)])
        + struct.pack("<I", message.stream_id)  # little-endian per spec quirk
    )
    basic3 = bytes([(3 << 6) | message.chunk_stream_id])
    parts = [basic0, header0, payload[:chunk_size]]
    offset = chunk_size
    while offset < len(payload):
        parts.append(basic3)
        parts.append(payload[offset : offset + chunk_size])
        offset += chunk_size
    return b"".join(parts)


def _parse_chunk_size(payload: bytes) -> int:
    """The chunk size a Set Chunk Size message announces.

    RTMP spec §5.4.1: a 4-byte big-endian value whose top bit is zero,
    and a chunk size of at least 1.
    """
    if len(payload) != 4:
        raise ValueError(f"Set Chunk Size payload is {len(payload)} bytes, not 4")
    size = struct.unpack(">I", payload)[0]
    if size & 0x80000000 or size < 1:
        raise ValueError(f"Set Chunk Size value {size:#x} out of range")
    return size


class ChunkParser:
    """Incremental RTMP chunk-stream parser.

    Reassembles messages from a byte stream, honouring Set Chunk Size
    control messages inline (type 1), exactly like a dissector must.
    """

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self.chunk_size = chunk_size
        self._buffer = bytearray()
        #: chunk_stream_id -> (expected message, received payload so far)
        self._partial: Dict[int, Tuple[RtmpMessageType, int, int, int, bytearray]] = {}
        self.messages: List[RtmpMessage] = []

    def feed(self, data: bytes) -> List[RtmpMessage]:
        """Consume bytes; return messages completed by them."""
        self._buffer.extend(data)
        done: List[RtmpMessage] = []
        while True:
            message = self._try_parse()
            if message is None:
                break
            if message.msg_type == RtmpMessageType.SET_CHUNK_SIZE:
                self.chunk_size = _parse_chunk_size(message.payload)
            done.append(message)
        self.messages.extend(done)
        return done

    def _try_parse(self) -> Optional[RtmpMessage]:
        """Consume chunks until one completes a message.

        Returns None once the buffer holds no complete chunk.  A loop,
        not recursion: one message may span any number of chunks.
        """
        buffer = self._buffer
        while buffer:
            fmt = buffer[0] >> 6
            csid = buffer[0] & 0x3F
            if fmt == 0:
                if len(buffer) < 12:
                    return None
                ts = int.from_bytes(buffer[1:4], "big")
                length = int.from_bytes(buffer[4:7], "big")
                msg_type = RtmpMessageType(buffer[7])
                stream_id = struct.unpack("<I", bytes(buffer[8:12]))[0]
                take = min(self.chunk_size, length)
                if len(buffer) < 12 + take:
                    return None
                payload = bytearray(buffer[12 : 12 + take])
                del buffer[: 12 + take]
                if len(payload) == length:
                    return RtmpMessage(msg_type, ts, bytes(payload), stream_id, csid)
                self._partial[csid] = (msg_type, ts, stream_id, length, payload)
            elif fmt == 3:
                state = self._partial.get(csid)
                if state is None:
                    raise ValueError(f"format-3 chunk for unknown stream {csid}")
                msg_type, ts, stream_id, length, payload = state
                take = min(self.chunk_size, length - len(payload))
                if len(buffer) < 1 + take:
                    return None
                payload.extend(buffer[1 : 1 + take])
                del buffer[: 1 + take]
                if len(payload) == length:
                    del self._partial[csid]
                    return RtmpMessage(msg_type, ts, bytes(payload), stream_id, csid)
            else:
                raise ValueError(f"chunk format {fmt} not supported (only 0 and 3)")
        return None

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# ----------------------------------------------------------------- media glue


def video_message(frame: EncodedFrame) -> RtmpMessage:
    """Wrap an encoded video frame as an RTMP video message (FLV body)."""
    marker = VIDEO_KEY_MARKER if frame.frame_type == "I" else VIDEO_INTER_MARKER
    return RtmpMessage(
        msg_type=RtmpMessageType.VIDEO,
        timestamp_ms=int(round(frame.dts * 1000)),
        payload=bytes([marker]) + encode_video_frame(frame),
    )


def audio_message(frame: AudioFrame) -> RtmpMessage:
    """Wrap an audio frame as an RTMP audio message (FLV body)."""
    return RtmpMessage(
        msg_type=RtmpMessageType.AUDIO,
        timestamp_ms=int(round(frame.pts * 1000)),
        payload=bytes([AUDIO_AAC_MARKER]) + encode_audio_frame(frame),
        chunk_stream_id=5,
    )


def media_frame_of(message: RtmpMessage) -> Union[EncodedFrame, AudioFrame]:
    """Recover the media frame from an AUDIO/VIDEO message payload."""
    if message.msg_type not in (RtmpMessageType.AUDIO, RtmpMessageType.VIDEO):
        raise ValueError(f"not a media message: {message.msg_type}")
    parser = FrameStreamParser()
    frames = parser.feed(message.payload[1:])  # strip the FLV marker byte
    if len(frames) != 1 or parser.pending_bytes:
        raise ValueError("media message does not hold exactly one frame record")
    return frames[0]


# ----------------------------------------------------------- simulated session


class RtmpPushSession:
    """Server side: push media frames over a simulated connection.

    After :meth:`handshake` completes (one message each way modelling
    C0C1/S0S1S2/C2 plus connect/play commands), every call to
    :meth:`push_frame` immediately transmits the frame — the defining
    latency behaviour of the RTMP path.
    """

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self.frames_pushed = 0
        self.bytes_pushed = 0

    def push_frame(self, frame: Union[EncodedFrame, AudioFrame]) -> Message:
        """Transmit one media frame right now, at its chunked size."""
        # The chunked wire size is a pure function of the payload length
        # (1 FLV marker byte plus the elementary-stream record), so the
        # frame is never serialized.
        if isinstance(frame, EncodedFrame):
            kind = "video"
            nbytes = _chunked_payload_size(1 + encoded_video_size(frame))
        else:
            kind = "audio"
            nbytes = _chunked_payload_size(1 + encoded_audio_size(frame))
        message = Message(
            payload=frame,
            nbytes=nbytes,
            annotations={
                "protocol": "rtmp",
                "kind": kind,
                "pts": frame.pts,
                "ntp": getattr(frame, "ntp_timestamp", None),
            },
        )
        self.frames_pushed += 1
        self.bytes_pushed += nbytes
        return self.connection.send(message)


def _chunked_payload_size(payload_len: int) -> int:
    """Wire size of a ``payload_len``-byte message after chunking at
    :data:`DEFAULT_CHUNK_SIZE`."""
    n_continuations = (payload_len - 1) // DEFAULT_CHUNK_SIZE
    if n_continuations < 0:
        n_continuations = 0
    return 12 + payload_len + n_continuations
