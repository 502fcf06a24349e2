"""Elementary-stream serialization of encoded frames.

Where a caller wants real bytes on the wire (sessions send sizes only),
frames are serialized into a compact tagged format that plays the role
of the AVC/AAC elementary streams: RTMP media messages and the MPEG-TS
muxer (HLS path) carry these bytes, the capture pipeline reassembles
them from packets, and the inspector in
:mod:`repro.capture.inspector` parses them back — recovering exactly the
per-frame facts (type, size, QP, timestamps) that the paper extracted
with libav.

Video record layout (big-endian)::

    0xF1 | type(1: I/P/B) | qp(f32) | pts(f64) | dts(f64) |
    ntp_flag(1) | ntp(f64 if flag) | payload_len(u32) | payload bytes

Audio record layout::

    0xF2 | pts(f64) | payload_len(u32) | payload bytes
"""

from __future__ import annotations

import struct
from typing import List, Optional, Union

from repro.media.frames import AudioFrame, EncodedFrame

VIDEO_MAGIC = 0xF1
AUDIO_MAGIC = 0xF2

_TYPE_TO_CODE = {"I": 0, "P": 1, "B": 2}
_CODE_TO_TYPE = {v: k for k, v in _TYPE_TO_CODE.items()}

_VIDEO_HEAD = struct.Struct(">BBfddB")
_NTP = struct.Struct(">d")
_LEN = struct.Struct(">I")
_AUDIO_HEAD = struct.Struct(">Bd")


def encode_video_frame(frame: EncodedFrame) -> bytes:
    """Serialize one video frame; the payload is ``frame.nbytes`` zero
    bytes (content entropy is irrelevant to every measurement here)."""
    head = _VIDEO_HEAD.pack(
        VIDEO_MAGIC,
        _TYPE_TO_CODE[frame.frame_type],
        float(frame.qp),
        float(frame.pts),
        float(frame.dts),
        1 if frame.ntp_timestamp is not None else 0,
    )
    parts = [head]
    if frame.ntp_timestamp is not None:
        parts.append(_NTP.pack(frame.ntp_timestamp))
    parts.append(_LEN.pack(frame.nbytes))
    parts.append(bytes(frame.nbytes))
    return b"".join(parts)


def encode_audio_frame(frame: AudioFrame) -> bytes:
    """Serialize one audio frame; the payload is ``frame.nbytes`` zero
    bytes."""
    return (
        _AUDIO_HEAD.pack(AUDIO_MAGIC, float(frame.pts))
        + _LEN.pack(frame.nbytes)
        + bytes(frame.nbytes)
    )


def encoded_video_size(frame: EncodedFrame) -> int:
    """``len(encode_video_frame(frame))`` without building the bytes.

    Lets size-fidelity senders (the common case) skip materializing the
    filler payload entirely."""
    size = _VIDEO_HEAD.size + _LEN.size + frame.nbytes
    if frame.ntp_timestamp is not None:
        size += _NTP.size
    return size


def encoded_audio_size(frame: AudioFrame) -> int:
    """``len(encode_audio_frame(frame))`` without building the bytes."""
    return _AUDIO_HEAD.size + _LEN.size + frame.nbytes


ParsedFrame = Union[EncodedFrame, AudioFrame]


class FrameStreamParser:
    """Incremental parser for concatenated frame records.

    Feed arbitrary byte chunks; complete frames pop out.  Partial records
    are buffered, so the parser works directly on reassembled TCP payload
    slices.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._video_index = 0
        self._audio_index = 0

    def feed(self, data: bytes) -> List[ParsedFrame]:
        """Consume ``data``; return frames completed by it."""
        self._buffer.extend(data)
        frames: List[ParsedFrame] = []
        while True:
            frame = self._try_parse_one()
            if frame is None:
                return frames
            frames.append(frame)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet parseable into a whole record."""
        return len(self._buffer)

    def _try_parse_one(self) -> Optional[ParsedFrame]:
        if not self._buffer:
            return None
        magic = self._buffer[0]
        if magic == VIDEO_MAGIC:
            return self._try_parse_video()
        if magic == AUDIO_MAGIC:
            return self._try_parse_audio()
        raise ValueError(f"corrupt stream: unexpected magic byte {magic:#x}")

    def _try_parse_video(self) -> Optional[EncodedFrame]:
        head_size = _VIDEO_HEAD.size
        if len(self._buffer) < head_size:
            return None
        magic, type_code, qp, pts, dts, ntp_flag = _VIDEO_HEAD.unpack(
            bytes(self._buffer[:head_size])
        )
        if type_code not in _CODE_TO_TYPE:
            raise ValueError(f"corrupt stream: unknown frame type code {type_code:#x}")
        offset = head_size
        ntp: Optional[float] = None
        if ntp_flag:
            if len(self._buffer) < offset + _NTP.size:
                return None
            (ntp,) = _NTP.unpack(bytes(self._buffer[offset : offset + _NTP.size]))
            offset += _NTP.size
        if len(self._buffer) < offset + _LEN.size:
            return None
        (payload_len,) = _LEN.unpack(bytes(self._buffer[offset : offset + _LEN.size]))
        offset += _LEN.size
        if len(self._buffer) < offset + payload_len:
            return None
        del self._buffer[: offset + payload_len]
        frame = EncodedFrame(
            index=self._video_index,
            pts=pts,
            dts=dts,
            frame_type=_CODE_TO_TYPE[type_code],
            nbytes=payload_len,
            qp=qp,
            complexity=0.0,  # not carried in the bitstream, as in real AVC
            ntp_timestamp=ntp,
        )
        self._video_index += 1
        return frame

    def _try_parse_audio(self) -> Optional[AudioFrame]:
        head_size = _AUDIO_HEAD.size
        if len(self._buffer) < head_size + _LEN.size:
            return None
        magic, pts = _AUDIO_HEAD.unpack(bytes(self._buffer[:head_size]))
        (payload_len,) = _LEN.unpack(
            bytes(self._buffer[head_size : head_size + _LEN.size])
        )
        total = head_size + _LEN.size + payload_len
        if len(self._buffer) < total:
            return None
        del self._buffer[:total]
        frame = AudioFrame(index=self._audio_index, pts=pts, nbytes=payload_len)
        self._audio_index += 1
        return frame
