"""Tests for the MPEG-TS muxer/demuxer."""

import random

import pytest

from repro.media.audio import AacEncoderModel
from repro.media.bitstream import encode_video_frame
from repro.media.content import CONTENT_PROFILES, ContentProcess
from repro.media.encoder import EncoderSettings, VideoEncoder
from repro.media.frames import AudioFrame, EncodedFrame
from repro.protocols import mpegts


def vframe(**overrides):
    defaults = dict(index=0, pts=0.5, dts=0.4, frame_type="I", nbytes=2000,
                    qp=28.0, complexity=1.0)
    defaults.update(overrides)
    return EncodedFrame(**defaults)


def test_crc32_mpeg_known_vector():
    # CRC-32/MPEG-2 of "123456789" is 0x0376E6E7 (standard check value).
    assert mpegts.crc32_mpeg(b"123456789") == 0x0376E6E7


def test_segment_is_packet_aligned():
    data = mpegts.mux_segment([vframe()])
    assert len(data) % mpegts.TS_PACKET_SIZE == 0
    assert all(
        data[i] == mpegts.SYNC_BYTE for i in range(0, len(data), mpegts.TS_PACKET_SIZE)
    )


def test_pat_pmt_recovered():
    result = mpegts.demux_segment(mpegts.mux_segment([vframe()]))
    assert result.pmt_streams == {
        mpegts.PID_VIDEO: mpegts.STREAM_TYPE_AVC,
        mpegts.PID_AUDIO: mpegts.STREAM_TYPE_AAC,
    }


def test_video_roundtrip():
    frame = vframe(nbytes=5000, frame_type="P", qp=33.25)
    result = mpegts.demux_segment(mpegts.mux_segment([frame]))
    assert len(result.video_frames) == 1
    out = result.video_frames[0]
    assert out.nbytes == 5000
    assert out.frame_type == "P"
    assert out.qp == pytest.approx(33.25, abs=1e-3)
    assert out.pts == pytest.approx(0.5)
    assert out.dts == pytest.approx(0.4)


def test_audio_roundtrip():
    audio = [AudioFrame(0, 0.1, 80), AudioFrame(1, 0.2, 85)]
    result = mpegts.demux_segment(mpegts.mux_segment([vframe()], audio))
    assert [a.nbytes for a in result.audio_frames] == [80, 85]


def test_corrupt_frame_type_raises_value_error():
    frame = vframe()
    data = bytearray(mpegts.mux_segment([frame]))
    record = data.find(encode_video_frame(frame)[:10])
    assert record > 0
    data[record + 1] = 0x41  # the frame-type code follows the record magic
    with pytest.raises(ValueError, match="frame type"):
        mpegts.demux_segment(bytes(data))


def test_continuity_counters_clean():
    video = [vframe(pts=i * 0.1, dts=i * 0.1, nbytes=3000 + i) for i in range(20)]
    result = mpegts.demux_segment(mpegts.mux_segment(video))
    assert result.continuity_errors == 0
    assert len(result.video_frames) == 20


def test_unaligned_segment_rejected():
    with pytest.raises(ValueError):
        mpegts.demux_segment(bytes(100))


def test_lost_sync_detected():
    data = bytearray(mpegts.mux_segment([vframe()]))
    data[mpegts.TS_PACKET_SIZE] = 0x00  # corrupt second packet's sync byte
    with pytest.raises(ValueError):
        mpegts.demux_segment(bytes(data))


def test_pts_encoding_roundtrip_33_bits():
    for value in (0, 1, 90_000, (1 << 33) - 1):
        encoded = mpegts._encode_pts(0b0010, value)
        assert mpegts._decode_pts(encoded) == value


def test_pes_timestamps_extractable():
    pes = mpegts.pes_packet(mpegts.STREAM_ID_VIDEO, b"payload", pts_s=2.5, dts_s=2.4)
    pts, dts = mpegts.extract_timestamps(pes)
    assert pts == pytest.approx(2.5, abs=1e-4)
    assert dts == pytest.approx(2.4, abs=1e-4)


def test_pes_pts_only_when_equal():
    pes = mpegts.pes_packet(mpegts.STREAM_ID_AUDIO, b"x", pts_s=1.0, dts_s=1.0)
    pts, dts = mpegts.extract_timestamps(pes)
    assert pts == pytest.approx(1.0, abs=1e-4)
    assert dts is None


def test_full_segment_roundtrip_with_encoder():
    settings = EncoderSettings(target_bps=300_000.0)
    content = ContentProcess(CONTENT_PROFILES["sports_tv"], random.Random(4))
    video = VideoEncoder(settings, content, random.Random(5)).encode_all(4.0)
    audio = AacEncoderModel(random.Random(6), nominal_bps=64_000.0).encode_all(4.0)
    result = mpegts.demux_segment(mpegts.mux_segment(video, audio))
    assert len(result.video_frames) == len(video)
    assert len(result.audio_frames) == len(audio)
    assert result.continuity_errors == 0
    got_ntp = [f.ntp_timestamp for f in result.video_frames if f.ntp_timestamp is not None]
    want_ntp = [f.ntp_timestamp for f in video if f.ntp_timestamp is not None]
    assert got_ntp == pytest.approx(want_ntp)


def test_large_frame_spans_many_packets():
    frame = vframe(nbytes=100_000)
    data = mpegts.mux_segment([frame])
    assert len(data) // mpegts.TS_PACKET_SIZE > 500
    result = mpegts.demux_segment(data)
    assert result.video_frames[0].nbytes == 100_000
