"""Diurnal behaviour of the service world.

The paper's deep crawls at different times of day found between 1K and
4K broadcasts; the arrival process here is thinned by broadcaster-local
time, so world concurrency and the composition of active regions breathe
over the day.
"""

from oracles import contains
from repro.service.geo import GeoRect
from repro.service.world import ServiceWorld, WorldParameters
from repro.util.sampling import DIURNAL_PROFILE, diurnal_weight


def test_concurrency_varies_over_the_day():
    world = ServiceWorld(WorldParameters(mean_concurrent=800), seed=61)
    counts = []
    for hour in range(0, 48, 6):
        world.advance_to(hour * 3600.0)
        counts.append(world.live_count())
    assert max(counts) > 1.1 * min(counts)  # visible breathing
    assert all(200 < c < 2400 for c in counts)


def test_regional_activity_follows_local_night():
    """At a fixed UTC instant, regions where it is ~4am local are
    quieter per unit weight than regions in their local evening."""
    world = ServiceWorld(WorldParameters(mean_concurrent=1500), seed=62)
    world.advance_to(4 * 3600.0)  # 04:00 UTC
    # Europe (UTC+1): ~05:00 local (slump). East Asia (UTC+9): 13:00.
    europe = GeoRect(35.0, -10.0, 65.0, 30.0)
    asia = GeoRect(20.0, 100.0, 50.0, 145.0)
    europe_n = len(world.query_map(europe, cap=10_000))
    asia_n = len(world.query_map(asia, cap=10_000))
    # Normalize by the population weights of the centers in each box.
    from repro.service.geo import POPULATION_CENTERS

    def weight(rect):
        return sum(c.weight for c in POPULATION_CENTERS if contains(rect, c.location))

    europe_rate = europe_n / weight(europe)
    asia_rate = asia_n / weight(asia)
    assert asia_rate > europe_rate


def test_diurnal_profile_mean_used_for_rate_compensation():
    mean = sum(DIURNAL_PROFILE) / len(DIURNAL_PROFILE)
    assert 0.6 < mean < 0.9
    # The compensation keeps long-run concurrency near the target even
    # though instantaneous acceptance varies between min and max.
    assert min(DIURNAL_PROFILE) == diurnal_weight(4)
    assert max(DIURNAL_PROFILE) == diurnal_weight(22)
