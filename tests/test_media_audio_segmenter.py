"""Tests for the AAC model and the HLS segmenter."""

import random

import pytest

from repro.media.audio import (
    FRAME_DURATION_S,
    NOMINAL_BITRATES_BPS,
    AacEncoderModel,
)
from repro.media.content import CONTENT_PROFILES, ContentProcess
from repro.media.encoder import EncoderSettings, GopPattern, VideoEncoder
from repro.media.segmenter import HlsSegmenter


class TestAacModel:
    def test_defaults_pick_nominal_rate(self):
        enc = AacEncoderModel(random.Random(1))
        assert enc.nominal_bps in NOMINAL_BITRATES_BPS

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            AacEncoderModel(random.Random(1), nominal_bps=48_000.0)

    def test_frame_cadence(self):
        enc = AacEncoderModel(random.Random(2), nominal_bps=64_000.0)
        frames = enc.encode_all(10.0)
        assert len(frames) == pytest.approx(10.0 / FRAME_DURATION_S, abs=2)
        assert frames[1].pts - frames[0].pts == pytest.approx(FRAME_DURATION_S)

    def test_vbr_rate_near_nominal(self):
        enc = AacEncoderModel(random.Random(3), nominal_bps=32_000.0)
        frames = enc.encode_all(60.0)
        bps = sum(f.nbytes for f in frames) * 8 / 60.0
        assert bps == pytest.approx(32_000.0, rel=0.10)

    def test_vbr_sizes_vary(self):
        enc = AacEncoderModel(random.Random(4), nominal_bps=64_000.0)
        sizes = {f.nbytes for f in enc.encode_all(5.0)}
        assert len(sizes) > 10

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            AacEncoderModel(random.Random(1)).encode_all(-1.0)


def encoded_broadcast(seed=1, duration=60.0, **enc_overrides):
    settings = EncoderSettings(target_bps=300_000.0, **enc_overrides)
    content = ContentProcess(CONTENT_PROFILES["indoor_event"], random.Random(seed))
    video = VideoEncoder(settings, content, random.Random(seed + 1)).encode_all(duration)
    audio = AacEncoderModel(random.Random(seed + 2), nominal_bps=32_000.0).encode_all(duration)
    return video, audio


class TestHlsSegmenter:
    def test_segments_start_with_i_frame(self):
        video, audio = encoded_broadcast()
        segments = list(HlsSegmenter().segment(video, audio))
        assert len(segments) > 5
        for seg in segments:
            first = min(seg.video_frames, key=lambda f: f.pts)
            assert first.frame_type == "I"

    def test_segment_durations_in_paper_range(self):
        video, audio = encoded_broadcast(duration=120.0)
        segments = list(HlsSegmenter().segment(video, audio))
        closed = segments[:-1]  # final partial segment excluded
        for seg in closed:
            assert 2.5 <= seg.duration_s <= 6.5

    def test_audio_frames_distributed_to_segments(self):
        video, audio = encoded_broadcast()
        segments = list(HlsSegmenter().segment(video, audio))
        distributed = sum(len(s.audio_frames) for s in segments)
        assert distributed == len(audio)

    def test_no_frames_lost(self):
        video, audio = encoded_broadcast()
        segments = list(HlsSegmenter().segment(video, audio))
        assert sum(len(s.video_frames) for s in segments) == len(video)

    def test_sequence_numbers_monotone(self):
        video, audio = encoded_broadcast()
        segments = list(HlsSegmenter().segment(video, audio))
        assert [s.sequence for s in segments] == list(range(len(segments)))

    def test_segment_bitrate_and_qp(self):
        video, audio = encoded_broadcast(duration=120.0)
        segments = list(HlsSegmenter().segment(video, audio))[:-1]
        for seg in segments:
            assert 50_000 < seg.nbytes * 8.0 / seg.duration_s < 2_000_000
            assert 10 <= seg.average_qp() <= 51

    def test_ip_only_stream_segments(self):
        video, audio = encoded_broadcast(gop=GopPattern("IP"))
        segments = list(HlsSegmenter().segment(video, audio))
        assert segments
        for seg in segments:
            assert min(seg.video_frames, key=lambda f: f.pts).frame_type == "I"
