"""Tests for the video encoder model."""

import random

import pytest

from repro.media.content import CONTENT_PROFILES, ContentProcess
from repro.media.encoder import EncoderSettings, GopPattern, VideoEncoder


def make_encoder(seed=1, wallclock_start=0.0, **overrides):
    defaults = dict(target_bps=300_000.0)
    defaults.update(overrides)
    settings = EncoderSettings(**defaults)
    content = ContentProcess(CONTENT_PROFILES["indoor_event"], random.Random(seed * 7))
    return VideoEncoder(settings, content, random.Random(seed), wallclock_start=wallclock_start)


class TestGopPattern:
    def test_display_types_ibp(self):
        types = GopPattern("IBP", i_period=8).display_types()
        assert types[0] == "I"
        assert "B" in types and "P" in types
        assert types[-1] != "B"
        assert len(types) == 8

    def test_display_types_ip(self):
        types = GopPattern("IP", i_period=10).display_types()
        assert types == ["I"] + ["P"] * 9

    def test_display_types_intra_only(self):
        assert GopPattern("I", i_period=4).display_types() == ["I"] * 4

    def test_no_two_consecutive_b(self):
        types = GopPattern("IBP", i_period=36).display_types()
        for a, b in zip(types, types[1:]):
            assert not (a == "B" and b == "B")

    def test_validation(self):
        with pytest.raises(ValueError):
            GopPattern("IPB")
        with pytest.raises(ValueError):
            GopPattern("IBP", i_period=0)

    def test_sample_population_shares(self):
        rng = random.Random(3)
        kinds = [GopPattern.sample(rng).kind for _ in range(4000)]
        assert 0.73 < kinds.count("IBP") / len(kinds) < 0.86
        assert 0.14 < kinds.count("IP") / len(kinds) < 0.25
        assert 0 < kinds.count("I") / len(kinds) < 0.03

    def test_sample_i_period_near_36(self):
        rng = random.Random(4)
        periods = [GopPattern.sample(rng).i_period for _ in range(500)]
        assert 33 < sum(periods) / len(periods) < 39


class TestVideoEncoder:
    def test_bitrate_near_target(self):
        enc = make_encoder()
        frames = enc.encode_all(60.0)
        assert frames
        bits = sum(frame.nbytes for frame in frames) * 8
        assert bits / 60.0 == pytest.approx(300_000.0, rel=0.15)

    def test_frame_rate_below_nominal(self):
        enc = make_encoder()
        frames = enc.encode_all(30.0)
        fps = len(frames) / 30.0
        assert 20.0 < fps <= 30.5

    def test_drops_reduce_fps(self):
        low = make_encoder(seed=2, drop_rate=0.0)
        high = make_encoder(seed=2, drop_rate=0.20)
        assert len(high.encode_all(30.0)) < len(low.encode_all(30.0))

    def test_pts_gaps_where_frames_dropped(self):
        enc = make_encoder(seed=3, drop_rate=0.3)
        frames = sorted(enc.encode_all(20.0), key=lambda f: f.pts)
        gaps = [b.pts - a.pts for a, b in zip(frames, frames[1:])]
        # Some gaps must be well above the nominal interval.
        assert max(gaps) > 2.0 / 30.0

    def test_decode_order_b_after_reference(self):
        enc = make_encoder(seed=4, drop_rate=0.0)
        frames = enc.encode_all(10.0)
        # Every B frame must appear after a reference frame with larger pts.
        last_ref_pts = -1.0
        for f in frames:
            if f.frame_type in ("I", "P"):
                last_ref_pts = f.pts
            else:
                assert f.pts < last_ref_pts

    def test_i_frames_every_period(self):
        enc = make_encoder(seed=5, drop_rate=0.0)
        frames = enc.encode_all(30.0)
        i_indices = [k for k, f in enumerate(frames) if f.frame_type == "I"]
        spacings = [b - a for a, b in zip(i_indices, i_indices[1:])]
        assert spacings
        assert all(30 <= s <= 42 for s in spacings)

    def test_ntp_timestamps_roughly_every_second(self):
        enc = make_encoder(seed=6, wallclock_start=1000.0)
        frames = enc.encode_all(30.0)
        stamps = [f.ntp_timestamp for f in frames if f.ntp_timestamp is not None]
        assert 25 <= len(stamps) <= 35
        assert all(ts >= 1000.0 for ts in stamps)

    def test_ntp_only_on_reference_frames(self):
        enc = make_encoder(seed=7)
        for f in enc.encode_all(20.0):
            if f.ntp_timestamp is not None:
                assert f.frame_type != "B"

    def test_average_qp_reasonable(self):
        enc = make_encoder(seed=8)
        enc.encode_all(30.0)
        assert 10 <= enc.average_qp <= 51

    def test_i_only_streams_much_larger_or_much_worse(self):
        # Intra-only coding is drastically less efficient: at the same
        # target bitrate the controller must raise QP far above the IBP
        # stream's (the paper saw I-only explain bitrate outliers).
        ibp = make_encoder(seed=9, gop=GopPattern("IBP"))
        intra = make_encoder(seed=9, gop=GopPattern("I"))
        ibp.encode_all(30.0)
        intra.encode_all(30.0)
        assert intra.average_qp > ibp.average_qp + 5

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            EncoderSettings(target_bps=0)
        with pytest.raises(ValueError):
            EncoderSettings(target_bps=1e5, drop_rate=1.5)
        with pytest.raises(ValueError):
            EncoderSettings(target_bps=1e5, nominal_fps=0)

    def test_generate_validation(self):
        with pytest.raises(ValueError):
            make_encoder().encode_all(0)

    def test_deterministic(self):
        a = [(f.pts, f.nbytes) for f in make_encoder(seed=10).encode_all(10.0)]
        b = [(f.pts, f.nbytes) for f in make_encoder(seed=10).encode_all(10.0)]
        assert a == b
