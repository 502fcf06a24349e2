"""Tests for the geography model."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import area_deg2, contains
from repro.service.geo import (
    POPULATION_CENTERS,
    GeoPoint,
    GeoRect,
    local_hour,
    sample_location,
)


def test_geopoint_validation():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 200.0)


def test_distance_wraps_dateline():
    a = GeoPoint(0.0, 179.0)
    b = GeoPoint(0.0, -179.0)
    assert a.distance_deg(b) == pytest.approx(2.0)


def test_rect_validation():
    with pytest.raises(ValueError):
        GeoRect(10.0, 0.0, -10.0, 5.0)
    with pytest.raises(ValueError):
        GeoRect(0.0, 10.0, 5.0, -10.0)


def test_rect_contains():
    # The reference the map scan is checked against: edges inclusive.
    rect = GeoRect(0.0, 0.0, 10.0, 10.0)
    assert contains(rect, GeoPoint(5.0, 5.0))
    assert contains(rect, GeoPoint(0.0, 0.0))
    assert not contains(rect, GeoPoint(-1.0, 5.0))


def test_quadrants_partition_area():
    rect = GeoRect(-10.0, -20.0, 30.0, 20.0)
    quads = rect.quadrants()
    assert len(quads) == 4
    assert sum(area_deg2(q) for q in quads) == pytest.approx(area_deg2(rect))
    # A point is inside exactly one quadrant unless on the split lines.
    point = GeoPoint(3.123, 7.456)
    assert sum(1 for q in quads if contains(q, point)) == 1


def test_world_rect_covers_everything():
    world = GeoRect.world()
    rng = random.Random(1)
    for _ in range(100):
        location, _ = sample_location(rng)
        assert contains(world, location)


def test_sample_location_clusters_near_centers():
    rng = random.Random(2)
    near = 0
    trials = 500
    for _ in range(trials):
        location, center = sample_location(rng)
        if location.distance_deg(center.location) < 4 * center.spread_deg:
            near += 1
    assert near / trials > 0.95


def test_population_weights_positive():
    assert all(c.weight > 0 for c in POPULATION_CENTERS)
    # No center in Africa (the paper found no ingest server there either).
    assert not any(-18 < c.location.lon < 50 and -35 < c.location.lat < 15
                   for c in POPULATION_CENTERS)


def test_local_hour():
    assert local_hour(0.0, 0) == 0.0
    assert local_hour(3600.0 * 25, 0) == pytest.approx(1.0)
    assert local_hour(0.0, 3) == 3.0
    assert local_hour(3600.0 * 23, 3) == pytest.approx(2.0)


def test_rect_key_hashable():
    rect = GeoRect(0.0, 0.0, 1.0, 1.0)
    assert rect.key() == (0.0, 0.0, 1.0, 1.0)
    assert {rect.key(): 1}


def scan_sample_location(rng):
    """The oracle: :func:`sample_location` as a linear scan of the centers."""
    pick = rng.random() * sum(c.weight for c in POPULATION_CENTERS)
    acc = 0.0
    center = POPULATION_CENTERS[-1]
    for candidate in POPULATION_CENTERS:
        acc += candidate.weight
        if pick < acc:
            center = candidate
            break
    lat = center.location.lat + rng.gauss(0.0, center.spread_deg)
    lon = center.location.lon + rng.gauss(0.0, center.spread_deg)
    lat = min(max(lat, -89.9), 89.9)
    lon = ((lon + 180.0) % 360.0) - 180.0
    return GeoPoint(lat, lon), center


@given(seed=st.integers(0, 2**64), skip=st.integers(0, 40),
       gauss_primed=st.booleans())
@settings(max_examples=200, deadline=None)
def test_sample_location_draws_as_the_linear_scan(seed, skip, gauss_primed):
    rng, oracle = random.Random(seed), random.Random(seed)
    for stream in (rng, oracle):
        for _ in range(skip):
            stream.getrandbits(32)
        if gauss_primed:
            stream.gauss(0.0, 1.0)
    for _ in range(3):
        assert sample_location(rng) == scan_sample_location(oracle)
        assert rng.getstate() == oracle.getstate()


class FixedPick:
    """A stand-in stream whose ``random()`` returns one chosen value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def gauss(self, mu, sigma):
        return mu


def test_sample_location_center_boundaries_match_the_linear_scan():
    total = sum(c.weight for c in POPULATION_CENTERS)
    picks = [0.0, math.nextafter(1.0, 0.0)]
    for running in itertools.accumulate(c.weight for c in POPULATION_CENTERS):
        u = running / total
        picks += [math.nextafter(u, 0.0), u, math.nextafter(u, 1.0)]
    for u in picks:
        if 0.0 <= u < 1.0:
            assert sample_location(FixedPick(u)) == scan_sample_location(FixedPick(u))
