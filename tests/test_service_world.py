"""Tests for the living service world."""

import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BroadcastState, contains, state_at
from repro.service.geo import GeoRect
from repro.service.world import ServiceWorld, WorldParameters


def small_world(mean_concurrent=300, seed=1, **overrides):
    params = WorldParameters(mean_concurrent=mean_concurrent, **overrides)
    return ServiceWorld(params, seed=seed)


def test_params_validation():
    with pytest.raises(ValueError):
        WorldParameters(mean_concurrent=0)
    with pytest.raises(ValueError):
        WorldParameters(undisclosed_fraction=1.2)
    with pytest.raises(ValueError):
        WorldParameters(private_fraction=-0.1)
    with pytest.raises(ValueError):
        WorldParameters(ended_grace_s=-1.0)


def test_warm_start_population():
    world = small_world()
    live = world.live_count()
    assert 0.4 * 300 < live < 2.5 * 300


def test_concurrency_roughly_stable_over_time():
    world = small_world(seed=2)
    counts = []
    for hour in range(1, 7):
        world.advance_to(hour * 3600.0)
        counts.append(world.live_count())
    assert all(50 < c < 900 for c in counts)


def test_cannot_move_backwards():
    world = small_world()
    world.advance_to(100.0)
    with pytest.raises(ValueError):
        world.advance_to(50.0)


def test_broadcasts_end_and_are_garbage_collected():
    world = small_world(seed=3, ended_grace_s=60.0)
    world.advance_to(600.0)
    some_live = world.live_broadcasts()[:20]
    victim = min(some_live, key=lambda b: b.end_time)
    world.advance_to(victim.end_time + 1.0)
    assert world.get_broadcast(victim.broadcast_id) is victim  # in grace
    world.advance_to(victim.end_time + 120.0)
    assert world.get_broadcast(victim.broadcast_id) is None  # forgotten


def test_query_map_filters_region():
    world = small_world(seed=4)
    europe = GeoRect(35.0, -10.0, 70.0, 40.0)
    result = world.query_map(europe)
    assert all(contains(europe, b.location) for b in result)


def test_query_map_cap_and_zoom_reveals_more():
    world = small_world(mean_concurrent=800, seed=5)
    whole = GeoRect.world()
    top_level = world.query_map(whole)
    assert len(top_level) <= world.params.map_response_cap
    # Zooming: union over quadrants finds at least as many as top level.
    seen = {b.broadcast_id for b in top_level}
    for quad in whole.quadrants():
        seen.update(b.broadcast_id for b in world.query_map(quad))
    assert len(seen) >= len(top_level)


def test_query_map_excludes_private_and_undisclosed():
    world = small_world(seed=6)
    result = world.query_map(GeoRect.world())
    assert all(not b.is_private for b in result)
    assert all(b.description_has_location for b in result)


def comprehension_query_map(world, rect, cap):
    """The oracle: the map query as one comprehension of method calls,
    with ``is_live_at`` spelled as the state it tests."""
    matches = [
        b
        for b in world._live.values()
        if not b.is_private
        and b.description_has_location
        and state_at(b, world.now) == BroadcastState.LIVE
        and contains(rect, b.location)
    ]
    matches.sort(key=lambda b: (-b.viewers_at(world.now), b.broadcast_id))
    return matches[:cap]


def edges(data, broadcasts, coordinate, low, high):
    """Two sorted rectangle edges, each either random or exactly some
    broadcast's ``coordinate``."""
    points = [getattr(b.location, coordinate) for b in broadcasts]
    edge = st.floats(low, high)
    if points:
        edge = st.one_of(edge, st.sampled_from(points))
    return sorted((data.draw(edge), data.draw(edge)))


@given(seed=st.integers(0, 2**16), advance_s=st.floats(0.0, 3600.0),
       cap=st.integers(1, 200), data=st.data())
@settings(max_examples=60, deadline=None)
def test_query_map_is_the_comprehension(seed, advance_s, cap, data):
    world = small_world(mean_concurrent=200, seed=seed)
    world.advance_to(advance_s)
    # Sometimes stop exactly where a live broadcast ends, before the next
    # retire scan removes it: the query must already leave it out.
    ending = sorted(
        b.end_time for b in world.live_broadcasts()
        if world.now < b.end_time
        < world._last_retire_scan + world.RETIRE_SCAN_INTERVAL_S
    )
    if ending and data.draw(st.booleans()):
        world.advance_to(data.draw(st.sampled_from(ending)))
    live = world.live_broadcasts()
    south, north = edges(data, live, "lat", -90.0, 90.0)
    west, east = edges(data, live, "lon", -180.0, 180.0)
    rect = GeoRect(south, west, north, east)
    got = world.query_map(rect, cap)
    want = comprehension_query_map(world, rect, cap)
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


def test_teleport_returns_live_public_broadcast():
    world = small_world(seed=8)
    rng = random.Random(99)
    for _ in range(50):
        b = world.teleport(rng)
        assert b is not None
        assert b.is_live_at(world.now)
        assert not b.is_private


def test_teleport_popularity_bias():
    world = small_world(mean_concurrent=500, seed=9)
    rng = random.Random(100)
    picks = [world.teleport(rng) for _ in range(300)]
    picked_mean = sum(b.mean_viewers for b in picks) / len(picks)
    population = world.live_broadcasts()
    population_mean = sum(b.mean_viewers for b in population) / len(population)
    assert picked_mean > 2 * population_mean


def test_deterministic_given_seed():
    a = small_world(seed=11)
    b = small_world(seed=11)
    assert {x.broadcast_id for x in a.live_broadcasts()} == {
        x.broadcast_id for x in b.live_broadcasts()
    }


def test_different_seeds_differ():
    a = small_world(seed=12)
    b = small_world(seed=13)
    assert {x.broadcast_id for x in a.live_broadcasts()} != {
        x.broadcast_id for x in b.live_broadcasts()
    }


def world_state_digest(world):
    """SHA-256 over everything the world holds or will draw from."""
    state = (
        list(world._live.items()),
        list(world._ended.items()),
        world._rng.getstate(),
        world._next_arrival,
        world.total_generated,
        list(world.utc_offset_by_id.items()),
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


#: (seed, mean_concurrent) -> world-state digests at construction and
#: after ``advance_to(3600.0)``, recorded with a world that kept every
#: warm-up arrival until its closing retire scan.  From Python 3.12
#: ``sum()`` of floats is compensated, which moves the diurnal
#: acceptance mean, and with it every arrival time, by an ulp.
WORLD_STATE_DIGESTS = {
    (2016, 600): (
        "7a8e65a2976d80143eabbba2003b79b030e827e95b65a4822589a05b40e9b4dc",
        "2d9eeaeedf2d555cab8bd946418ce48395ffd461487f87115b0fb48bcb765c9f",
    ),
    (2017, 600): (
        "3947325a1fc43112cf5bbe128c3621c4cab0e86c6f0fcf3c65b7415f2d23c374",
        "ea4bf54ecdcd62263cfb0d0b195d0c3bb07357b737b813f63e8e00e8d3c2de98",
    ),
    (7, 1500): (
        "72755b8058b1559d32fe71f7529f68329df80dd58fe000899e22f9eae7503682",
        "ee10ed17c15eb71aee850a640e4de4cee8643724642bbf905bbe36ad44f9a755",
    ),
}
WORLD_STATE_DIGESTS_COMPENSATED_SUM = {
    (2016, 600): (
        "a5051ef7a3ac8bedc09c36e441382e1f8930cd0b4d65fdf0e5cc0526a8f1b4cb",
        "91acb288ba104d898c14142fbb62535f53820e09739a2a80d6d300a1800ef745",
    ),
    (2017, 600): (
        "243721c5d9a31fc5e9062141844d1087b71d5b567fdca40e67e38a5423fc3a1e",
        "623a24c5b8199ef4b143ff1057979f4d0bf37af3e9aa1e29541a8da14671281f",
    ),
    (7, 1500): (
        "2c5498a0c1ff57d948bb49eee8b6f1e887b857e748cca2317fd9850c6921476c",
        "23161e2b7c74798cc26a32c794b133dede4b91949e037b2a7990b1025315f974",
    ),
}


@pytest.mark.parametrize("seed,mean_concurrent", sorted(WORLD_STATE_DIGESTS))
def test_world_state_matches_the_keep_everything_world(seed, mean_concurrent):
    """Not keeping what nobody can observe moves no draw and no kept
    broadcast, at construction and after an hour of evolution."""
    pins = (WORLD_STATE_DIGESTS_COMPENSATED_SUM if sys.version_info >= (3, 12)
            else WORLD_STATE_DIGESTS)
    at_start, after_an_hour = pins[(seed, mean_concurrent)]
    world = small_world(mean_concurrent=mean_concurrent, seed=seed)
    assert world_state_digest(world) == at_start
    world.advance_to(3600.0)
    assert world_state_digest(world) == after_an_hour


def test_warm_up_holds_only_observable_broadcasts(monkeypatch):
    """The pre-roll draws all 10,584 arrivals, but the live set its
    closing retire scan walks holds only the 532 live and 830 recently
    ended ones the world keeps."""
    scanned = []
    retire = ServiceWorld._retire

    def recording_retire(self, *args):
        scanned.append(len(self._live))
        retire(self, *args)

    monkeypatch.setattr(ServiceWorld, "_retire", recording_retire)
    world = small_world(mean_concurrent=600, seed=2016)
    assert world.total_generated == 10_584
    assert len(world.utc_offset_by_id) == 10_584
    assert (world.live_count(), len(world._ended)) == (532, 830)
    assert scanned == [1_362]
