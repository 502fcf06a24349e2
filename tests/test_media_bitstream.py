"""Round-trip and robustness tests for the elementary-stream format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.bitstream import (
    FrameStreamParser,
    encode_audio_frame,
    encode_video_frame,
)
from repro.media.content import CONTENT_PROFILES, ContentProcess
from repro.media.encoder import EncoderSettings, VideoEncoder
from repro.media.frames import AudioFrame, EncodedFrame


def video_frame(**overrides):
    defaults = dict(
        index=0, pts=1.5, dts=1.4, frame_type="P", nbytes=333, qp=31.5,
        complexity=1.0, ntp_timestamp=None,
    )
    defaults.update(overrides)
    return EncodedFrame(**defaults)


def parse(data):
    """Feed ``data`` to a fresh parser, which must consume every byte."""
    parser = FrameStreamParser()
    frames = parser.feed(data)
    assert parser.pending_bytes == 0
    return frames


def test_video_roundtrip_plain():
    frame = video_frame()
    parsed = parse(encode_video_frame(frame))
    assert len(parsed) == 1
    out = parsed[0]
    assert out.frame_type == "P"
    assert out.nbytes == 333
    assert out.pts == pytest.approx(1.5)
    assert out.dts == pytest.approx(1.4)
    assert out.qp == pytest.approx(31.5, abs=1e-4)
    assert out.ntp_timestamp is None


def test_video_roundtrip_with_ntp():
    frame = video_frame(ntp_timestamp=1234567.25)
    out = parse(encode_video_frame(frame))[0]
    assert out.ntp_timestamp == pytest.approx(1234567.25)


def test_audio_roundtrip():
    frame = AudioFrame(index=0, pts=0.5, nbytes=100)
    out = parse(encode_audio_frame(frame))[0]
    assert isinstance(out, AudioFrame)
    assert out.nbytes == 100
    assert out.pts == pytest.approx(0.5)


def test_mixed_stream_order_preserved():
    stream = (
        encode_video_frame(video_frame(frame_type="I"))
        + encode_audio_frame(AudioFrame(0, 0.1, 50))
        + encode_video_frame(video_frame(frame_type="B", pts=2.0))
    )
    parsed = parse(stream)
    kinds = [type(f).__name__ for f in parsed]
    assert kinds == ["EncodedFrame", "AudioFrame", "EncodedFrame"]


def test_incremental_feed_any_chunking():
    stream = b"".join(
        encode_video_frame(video_frame(pts=float(i), nbytes=100 + i)) for i in range(10)
    )
    parser = FrameStreamParser()
    out = []
    for i in range(0, len(stream), 7):  # awkward chunk size
        out.extend(parser.feed(stream[i : i + 7]))
    assert len(out) == 10
    assert parser.pending_bytes == 0


@given(st.integers(min_value=1, max_value=4000), st.sampled_from(["I", "P", "B"]))
@settings(max_examples=50)
def test_roundtrip_property(nbytes, frame_type):
    frame = video_frame(nbytes=nbytes, frame_type=frame_type)
    out = parse(encode_video_frame(frame))[0]
    assert out.nbytes == nbytes
    assert out.frame_type == frame_type


def test_corrupt_magic_raises():
    with pytest.raises(ValueError):
        parse(b"\x00\x01\x02")


@pytest.mark.parametrize("code", [3, 0x41, 0xFF])
def test_corrupt_frame_type_raises_value_error(code):
    data = bytearray(encode_video_frame(video_frame()))
    data[1] = code  # the byte after the magic is the frame-type code
    with pytest.raises(ValueError, match="frame type"):
        parse(bytes(data))


def test_trailing_garbage_detected():
    data = encode_video_frame(video_frame()) + b"\xf1\x00"  # truncated header
    parser = FrameStreamParser()
    assert len(parser.feed(data)) == 1
    assert parser.pending_bytes == 2


def test_full_encoder_output_roundtrips():
    settings = EncoderSettings(target_bps=300_000.0)
    content = ContentProcess(CONTENT_PROFILES["static_talker"], random.Random(5))
    frames = VideoEncoder(settings, content, random.Random(6)).encode_all(10.0)
    stream = b"".join(encode_video_frame(f) for f in frames)
    parsed = parse(stream)
    assert len(parsed) == len(frames)
    assert [f.frame_type for f in parsed] == [f.frame_type for f in frames]
    assert [f.nbytes for f in parsed] == [f.nbytes for f in frames]
