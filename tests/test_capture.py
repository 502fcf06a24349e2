"""Tests for the capture pipeline: reconstruction and inspection."""

import random

import pytest

from repro.capture.inspector import classify_gop, inspect_frames, qp_bitrate_points
from repro.capture.reconstruct import (
    classify_flows,
    extract_hls_segments,
    extract_rtmp_frames,
    reassemble_flows,
)
from repro.media.content import CONTENT_PROFILES, ContentProcess
from repro.media.encoder import EncoderSettings, VideoEncoder
from repro.media.frames import EncodedFrame
from repro.service.selection import DeliveryProtocol
from tests.test_core_session import run_captured, session_setup


@pytest.fixture(scope="module")
def rtmp_session():
    """``(artifacts, capture)`` of one RTMP session."""
    return run_captured(session_setup(watch=20.0, seed=31))


@pytest.fixture(scope="module")
def rtmp_capture(rtmp_session):
    return rtmp_session[1]


@pytest.fixture(scope="module")
def hls_capture():
    return run_captured(session_setup(protocol=DeliveryProtocol.HLS,
                                      viewers=300.0, watch=25.0, seed=32))[1]


class TestReconstruction:
    def test_reassembles_flows(self, rtmp_capture):
        streams = reassemble_flows(rtmp_capture)
        assert streams
        down = [s for s in streams.values() if s.direction == "down"]
        assert down
        assert all(s.total_payload_bytes > 0 for s in down)

    def test_classify_flows(self, rtmp_capture):
        streams = reassemble_flows(rtmp_capture)
        buckets = classify_flows(streams)
        assert buckets["rtmp"]
        assert buckets["http"]      # API + avatar traffic
        assert buckets["websocket"]  # chat

    def test_extract_rtmp_frames(self, rtmp_capture):
        streams = reassemble_flows(rtmp_capture)
        media = [
            s for s in streams.values()
            if s.direction == "down"
            and any(a.get("protocol") == "rtmp" and a.get("kind") in ("video", "audio")
                    for _, a in s.messages)
        ]
        assert media
        frames = extract_rtmp_frames(media[0])
        video = [f for _, f in frames if isinstance(f, EncodedFrame)]
        assert len(video) > 100
        times = [t for t, _ in frames]
        assert times == sorted(times)

    def test_extract_hls_segments(self, hls_capture):
        streams = reassemble_flows(hls_capture)
        all_segments = []
        for stream in streams.values():
            if stream.direction == "down":
                all_segments.extend(extract_hls_segments(stream))
        assert len(all_segments) >= 3
        for _, segment in all_segments:
            assert segment.video_frames

    def test_capture_rate_accounting(self, rtmp_capture):
        streams = reassemble_flows(rtmp_capture)
        rtmp = classify_flows(streams)["rtmp"]
        rate = max(s.average_rate_bps() for s in rtmp)
        assert 100_000 < rate < 2_000_000  # a plausible video stream


class TestInspector:
    def _frames(self, gop="IBP", seed=1, duration=30.0):
        from repro.media.encoder import GopPattern

        settings = EncoderSettings(target_bps=300_000.0, gop=GopPattern(gop))
        content = ContentProcess(CONTENT_PROFILES["indoor_event"], random.Random(seed))
        return VideoEncoder(settings, content, random.Random(seed + 1)).encode_all(duration)

    def test_classify_gop(self):
        assert classify_gop(["I", "B", "P", "B", "P"]) == "IBP"
        assert classify_gop(["I", "P", "P"]) == "IP"
        assert classify_gop(["I", "I"]) == "I"
        assert classify_gop(["X"]) == "unknown"
        assert classify_gop([]) == "unknown"

    def test_inspect_recovers_encoder_facts(self):
        frames = self._frames()
        report = inspect_frames(frames)
        assert report.video_bitrate_bps == pytest.approx(300_000, rel=0.2)
        assert report.gop_kind == "IBP"
        assert 30 <= report.i_frame_period <= 42
        assert 20 <= report.average_fps <= 31
        assert 10 <= report.average_qp <= 51

    def test_inspect_ip_only(self):
        report = inspect_frames(self._frames(gop="IP"))
        assert report.gop_kind == "IP"

    def test_missing_frames_detected(self):
        from repro.media.encoder import GopPattern

        settings = EncoderSettings(target_bps=300_000.0, drop_rate=0.3)
        content = ContentProcess(CONTENT_PROFILES["indoor_event"], random.Random(9))
        frames = VideoEncoder(settings, content, random.Random(10)).encode_all(20.0)
        assert inspect_frames(frames).has_missing_frames

    def test_requires_two_frames(self):
        with pytest.raises(ValueError):
            inspect_frames(self._frames()[:1])

    def test_qp_bitrate_points(self):
        reports = [inspect_frames(self._frames(seed=s)) for s in (1, 2)]
        points = qp_bitrate_points(reports)
        assert len(points) == 2
        assert all(b > 0 and 10 <= q <= 51 for b, q in points)

    def test_audio_bitrate(self):
        from repro.media.audio import AacEncoderModel

        video = self._frames()
        audio = AacEncoderModel(random.Random(3), nominal_bps=64_000.0).encode_all(30.0)
        report = inspect_frames(video, audio)
        assert report.audio_bitrate_bps == pytest.approx(64_000, rel=0.2)
        assert report.n_audio_frames == len(audio)


def test_cross_validation_capture_vs_player(rtmp_session):
    """The capture pipeline and the player must agree on media facts."""
    artifacts, capture = rtmp_session
    streams = reassemble_flows(capture)
    media = max(
        (s for s in streams.values() if s.direction == "down"),
        key=lambda s: s.total_payload_bytes,
    )
    frames = extract_rtmp_frames(media)
    video = [f for _, f in frames if isinstance(f, EncodedFrame)]
    report = inspect_frames(video)
    qoe = artifacts.qoe
    assert report.video_bitrate_bps == pytest.approx(qoe.video_bitrate_bps, rel=0.05)
    assert report.average_qp == pytest.approx(qoe.avg_qp, abs=1.0)
