"""Tests for the content-complexity model."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.content import (
    CONTENT_PROFILES,
    ContentProcess,
    ContentProfile,
    pick_profile,
)


def process(name="static_talker", seed=1):
    return ContentProcess(CONTENT_PROFILES[name], random.Random(seed))


def test_profiles_weights_sum_to_one():
    assert sum(p.weight for p in CONTENT_PROFILES.values()) == pytest.approx(1.0)


def test_complexity_stays_in_bounds():
    p = process("sports_tv")
    for _ in range(5000):
        c = p.step()
        assert ContentProcess.MIN_COMPLEXITY <= c <= ContentProcess.MAX_COMPLEXITY


def test_mean_reversion_to_profile_mean():
    p = process("outdoor_walk", seed=7)
    samples = [p.step() for _ in range(20000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(CONTENT_PROFILES["outdoor_walk"].mean_complexity, rel=0.15)


def test_static_talker_less_variable_than_sports():
    def variance(name):
        p = process(name, seed=3)
        samples = [p.step() for _ in range(5000)]
        mean = sum(samples) / len(samples)
        return sum((s - mean) ** 2 for s in samples) / len(samples)

    assert variance("static_talker") < variance("sports_tv")


def test_deterministic_given_seed():
    a = [process(seed=9).step() for _ in range(1)]
    b = [process(seed=9).step() for _ in range(1)]
    assert a == b


def test_pick_profile_distribution():
    rng = random.Random(11)
    picks = [pick_profile(rng).name for _ in range(5000)]
    share_talker = picks.count("static_talker") / len(picks)
    assert 0.3 < share_talker < 0.5
    assert set(picks) <= set(CONTENT_PROFILES)


def test_scene_changes_do_occur():
    profile = ContentProfile("jumpy", 1.0, 0.0, scene_change_rate=0.5, weight=1.0)
    p = ContentProcess(profile, random.Random(5))
    values = {round(p.step(), 6) for _ in range(50)}
    # With volatility 0 the only variation comes from scene changes.
    assert len(values) > 5


def scan_pick_profile(rng):
    """The oracle: :func:`pick_profile` as a per-call scan of the genres."""
    profiles = list(CONTENT_PROFILES.values())
    weights = [p.weight for p in profiles]
    total = sum(weights)
    pick = rng.random() * total
    acc = 0.0
    for profile, weight in zip(profiles, weights):
        acc += weight
        if pick < acc:
            return profile
    return profiles[-1]


@given(seed=st.integers(0, 2**64), skip=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_pick_profile_draws_as_the_per_call_scan(seed, skip):
    rng, oracle = random.Random(seed), random.Random(seed)
    for stream in (rng, oracle):
        for _ in range(skip):
            stream.getrandbits(32)
    for _ in range(5):
        assert pick_profile(rng) is scan_pick_profile(oracle)
        assert rng.getstate() == oracle.getstate()


class FixedPick:
    """A stand-in stream whose ``random()`` returns one chosen value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_pick_profile_boundaries_match_the_per_call_scan():
    weights = [p.weight for p in CONTENT_PROFILES.values()]
    total = sum(weights)
    picks = [0.0, math.nextafter(1.0, 0.0)]
    for running in itertools.accumulate(weights):
        u = running / total
        picks += [math.nextafter(u, 0.0), u, math.nextafter(u, 1.0)]
    for u in picks:
        if 0.0 <= u < 1.0:
            assert pick_profile(FixedPick(u)) is scan_pick_profile(FixedPick(u))
