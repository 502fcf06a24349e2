"""Tests for broadcast sampling, calibrated to Section 4 statistics."""

import math
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BroadcastState, state_at
from repro.media.encoder import GopPattern
from repro.service.broadcast import (
    BROADCAST_ID_LENGTH,
    make_broadcast_id,
    sample_broadcast,
    sample_duration_s,
    sample_mean_viewers,
    sample_target_bitrate_bps,
)
from repro.service.geo import POPULATION_CENTERS, GeoPoint


def make(rng=None, start=1000.0, **overrides):
    rng = rng or random.Random(1)
    broadcast = sample_broadcast(
        rng, start_time=start, location=GeoPoint(40.7, -74.0),
        center=POPULATION_CENTERS[0],
    )
    for key, value in overrides.items():
        setattr(broadcast, key, value)
    return broadcast


def test_broadcast_id_shape():
    rng = random.Random(3)
    ids = {make_broadcast_id(rng) for _ in range(100)}
    assert len(ids) == 100
    assert all(len(i) == BROADCAST_ID_LENGTH for i in ids)
    assert all(c.isalnum() for i in ids for c in i)


ID_ALPHABET = string.ascii_letters + string.digits


def choice_broadcast_id(rng):
    """The oracle: one ``rng.choice`` per id character."""
    return "".join(rng.choice(ID_ALPHABET) for _ in range(BROADCAST_ID_LENGTH))


@given(seed=st.integers(0, 2**64), skip=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_broadcast_id_draws_as_one_choice_per_character(seed, skip):
    rng, oracle = random.Random(seed), random.Random(seed)
    for stream in (rng, oracle):
        for _ in range(skip):
            stream.getrandbits(32)
    for _ in range(4):
        assert make_broadcast_id(rng) == choice_broadcast_id(oracle)
        assert rng.getstate() == oracle.getstate()


class CountingRandom(random.Random):
    """Counts the 32-bit words ``rng.choice`` takes (one per call)."""

    words = 0

    def getrandbits(self, k):
        self.words += 1
        return super().getrandbits(k)


def test_broadcast_id_redraws_rejected_words_as_choice_does():
    """Ids whose words index past the alphabet, once or several times
    (a redrawn word rejected too), still match the oracle."""
    rejected_seen = set()
    for seed in range(3000):
        rng, oracle = random.Random(seed), CountingRandom(seed)
        assert make_broadcast_id(rng) == choice_broadcast_id(oracle)
        assert rng.getstate() == oracle.getstate()
        rejected_seen.add(oracle.words - BROADCAST_ID_LENGTH)
    assert {0, 1, 2, 3} <= rejected_seen


def test_state_transitions():
    b = make(start=100.0, duration_s=60.0)
    assert not b.is_live_at(50.0)
    assert b.is_live_at(100.0)
    assert b.is_live_at(159.9)
    assert not b.is_live_at(160.0)
    assert b.end_time == 160.0


@given(start=st.floats(-1e9, 1e9), duration=st.floats(0.0, 1e6),
       t=st.floats(-2e9, 2e9))
@settings(max_examples=300, deadline=None)
def test_is_live_at_is_the_live_state(start, duration, t):
    """The inlined interval test agrees with the ``state_at`` oracle at both
    ends of the lifetime, one float step either side of each, and at a
    random instant."""
    b = make(start=start, duration_s=duration)
    probes = [t]
    for edge in (b.start_time, b.start_time + b.duration_s):
        probes += [math.nextafter(edge, -math.inf), edge,
                   math.nextafter(edge, math.inf)]
    for probe in probes:
        assert b.is_live_at(probe) == (state_at(b, probe) is BroadcastState.LIVE)


class TestPopulationStatistics:
    """The paper's aggregate numbers, reproduced by the samplers."""

    def test_zero_viewer_fraction_above_10_percent(self):
        rng = random.Random(4)
        samples = [sample_mean_viewers(rng) for _ in range(20_000)]
        zero_share = sum(1 for s in samples if s == 0) / len(samples)
        assert 0.10 < zero_share < 0.14

    def test_over_90_percent_below_20_viewers(self):
        rng = random.Random(5)
        samples = [sample_mean_viewers(rng) for _ in range(20_000)]
        below20 = sum(1 for s in samples if s < 20) / len(samples)
        assert below20 > 0.90

    def test_some_broadcasts_attract_thousands(self):
        rng = random.Random(6)
        samples = [sample_mean_viewers(rng) for _ in range(20_000)]
        assert max(samples) > 1000

    def test_durations_mostly_1_to_10_minutes(self):
        rng = random.Random(7)
        samples = [sample_duration_s(rng, True) for _ in range(10_000)]
        in_band = sum(1 for s in samples if 60 <= s <= 600) / len(samples)
        assert in_band > 0.5

    def test_roughly_half_under_4_minutes(self):
        rng = random.Random(8)
        viewers = [sample_duration_s(rng, True) for _ in range(9_000)]
        no_viewers = [sample_duration_s(rng, False) for _ in range(1_100)]
        combined = viewers + no_viewers
        under4 = sum(1 for s in combined if s < 240) / len(combined)
        assert 0.4 < under4 < 0.62

    def test_duration_tail_beyond_a_day(self):
        rng = random.Random(9)
        samples = [sample_duration_s(rng, True) for _ in range(50_000)]
        assert max(samples) > 86_400

    def test_unviewed_broadcasts_much_shorter(self):
        rng = random.Random(10)
        viewed = [sample_duration_s(rng, True) for _ in range(5_000)]
        unviewed = [sample_duration_s(rng, False) for _ in range(5_000)]
        assert sum(unviewed) / len(unviewed) < 0.4 * (sum(viewed) / len(viewed))

    def test_unviewed_mostly_not_replayable(self):
        rng = random.Random(11)
        unviewed = []
        while len(unviewed) < 1000:
            b = sample_broadcast(rng, 0.0, GeoPoint(0, 0), POPULATION_CENTERS[0])
            if not b.has_viewers:
                unviewed.append(b)
        replayable = sum(1 for b in unviewed if b.available_for_replay)
        assert replayable / len(unviewed) < 0.2


class TestViewerCurve:
    def test_zero_outside_lifetime(self):
        b = make(start=100.0, duration_s=600.0, mean_viewers=50.0)
        assert b.viewers_at(99.0) == 0.0
        assert b.viewers_at(701.0) == 0.0

    def test_integrates_to_mean(self):
        b = make(start=0.0, duration_s=600.0, mean_viewers=40.0)
        samples = [b.viewers_at(t) for t in range(0, 600, 2)]
        assert sum(samples) / len(samples) == pytest.approx(40.0, rel=0.05)

    def test_peak_early_then_decay(self):
        b = make(start=0.0, duration_s=1000.0, mean_viewers=100.0)
        early = b.viewers_at(150.0)   # at the peak
        late = b.viewers_at(900.0)
        assert early > late

    def test_zero_viewer_broadcast_flat_zero(self):
        b = make(start=0.0, duration_s=600.0, mean_viewers=0.0)
        assert b.viewers_at(300.0) == 0.0



def test_description_fields():
    b = make(start=0.0, duration_s=600.0, mean_viewers=10.0)
    desc = b.description(100.0)
    assert desc["id"] == b.broadcast_id
    assert desc["state"] == "RUNNING"
    assert isinstance(desc["n_watching"], int)
    assert desc["available_for_replay"] == b.available_for_replay
    assert b.description(700.0)["state"] == "ENDED"


def test_i_only_broadcasts_get_hot_bitrates():
    rng = random.Random(12)
    hot, normal = [], []
    for _ in range(2000):
        b = sample_broadcast(rng, 0.0, GeoPoint(0, 0), POPULATION_CENTERS[0])
        (hot if b.gop.kind == "I" else normal).append(b.target_bitrate_bps)
    assert hot, "expected some I-only broadcasts in 2000 draws"
    assert min(hot) > 400_000
    assert sum(normal) / len(normal) < 450_000


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(("IBP", "IP", "I")))
@settings(max_examples=200, deadline=None)
def test_target_bitrate_range_follows_the_gop_kind(seed, kind):
    target = sample_target_bitrate_bps(random.Random(seed), GopPattern(kind))
    if kind == "I":
        assert 500_000.0 <= target <= 1_400_000.0
    else:
        assert 120_000.0 <= target <= 900_000.0

