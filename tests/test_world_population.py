"""Unit tests for the mesoscale world: popularity, cohorts, sampling."""

import dataclasses
import math

import pytest

from oracles import BroadcastState, state_at
from repro.core.config import StudyConfig
from repro.core.popstudy import PopulationStudy
from repro.service.broadcast import AUDIENCE_DECAY_RATE, AUDIENCE_RAMP_FRACTION
from repro.service.selection import DeliveryProtocol
from repro.util.units import MBPS
from repro.world.cohorts import (
    AUDIENCE_CURVE_STEPS,
    BANDWIDTH_CLASSES,
    BUFFER_CAP_S,
    SETUP_DELAY_S,
    STARTUP_MEDIA_S,
    CohortAggregate,
    audience_curve,
    build_cohorts,
    cohort_aggregate,
    effective_stream_rate_bps,
    peak_viewers,
)
from repro.world.popularity import (
    PopulationParameters,
    Population,
    apportion,
    build_broadcast,
    sample_population,
)
from repro.world.sampler import (
    END_MARGIN_S,
    MIN_JOIN_AGE_S,
    joinable_min_duration_s,
    plan_expansions,
)
from repro.world.shards import (
    ShardResult,
    WorldContext,
    compute_shard,
    shard_bounds,
)

SEED = 2016


class TestApportionment:
    def test_sums_to_total(self):
        for weights in ([1.0], [3.0, 1.0], [0.2] * 7, [5.0, 0.0, 2.5]):
            for total in (0, 1, 10, 997):
                counts = apportion(total, weights)
                assert sum(counts) == total

    def test_proportionality(self):
        counts = apportion(100, [3.0, 1.0])
        assert counts == [75, 25]

    def test_zero_weight_gets_nothing(self):
        counts = apportion(50, [1.0, 0.0, 1.0])
        assert counts[1] == 0

    def test_all_zero_weights_degenerate(self):
        assert apportion(7, [0.0, 0.0, 0.0]) == [7, 0, 0]

    def test_empty_weights(self):
        assert apportion(5, []) == []

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            apportion(-1, [1.0])


class TestPopulation:
    def test_viewer_budget_is_exact(self):
        population = sample_population(
            SEED, PopulationParameters(viewers=12_345)
        )
        assert population.total_viewers == 12_345

    def test_mean_audience_matches_empirical(self):
        params = PopulationParameters(viewers=200_000)
        population = sample_population(SEED, params)
        empirical = population.total_viewers / population.n_broadcasters
        assert empirical == pytest.approx(params.mean_audience(), rel=0.15)

    def test_zero_audience_share_near_nominal(self):
        params = PopulationParameters(viewers=50_000)
        population = sample_population(SEED, params)
        share = population.zero_audience_count() / population.n_broadcasters
        assert share == pytest.approx(params.zero_viewer_fraction, abs=0.03)

    def test_heavy_tail_concentration(self):
        population = sample_population(
            SEED, PopulationParameters(viewers=50_000)
        )
        # The defining mesoscale property: a thin head carries a fat
        # share of all viewers.
        assert population.top_share(0.01) > 0.25
        assert population.top_share(0.10) > population.top_share(0.01)

    def test_audience_cdf_monotone(self):
        population = sample_population(
            SEED, PopulationParameters(viewers=5_000)
        )
        grid = [0, 1, 5, 20, 100, 10_000]
        values = [population.audience_cdf(x) for x in grid]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PopulationParameters(viewers=0)
        with pytest.raises(ValueError):
            PopulationParameters(sample_budget=-1)
        with pytest.raises(ValueError):
            PopulationParameters(zero_viewer_fraction=1.0)
        with pytest.raises(ValueError):
            Population(SEED, PopulationParameters(),
                       [1, 2, 3]).top_share(0.0)

    def test_build_broadcast_deterministic(self):
        a = build_broadcast(SEED, 17, audience=40, min_duration_s=30.0)
        b = build_broadcast(SEED, 17, audience=40, min_duration_s=30.0)
        assert a.broadcast_id == b.broadcast_id
        assert a.duration_s == b.duration_s
        assert a.mean_viewers == 40.0
        assert a.duration_s >= 30.0


class TestCohorts:
    def _broadcast(self, audience=50):
        return build_broadcast(SEED, 3, audience=audience,
                               min_duration_s=120.0)

    def test_members_sum_to_audience(self):
        broadcast = self._broadcast(audience=37)
        cohorts = build_cohorts(broadcast, 3, 37, hls_viewer_threshold=100)
        assert sum(c.members for c in cohorts) == 37

    def test_zero_audience_no_cohorts(self):
        broadcast = self._broadcast()
        assert build_cohorts(broadcast, 3, 0, hls_viewer_threshold=100) == []

    def test_protocol_follows_peak_threshold(self):
        broadcast = self._broadcast(audience=500)
        peak = peak_viewers(broadcast)
        hls = build_cohorts(broadcast, 3, 500, hls_viewer_threshold=peak / 2)
        rtmp = build_cohorts(broadcast, 3, 500, hls_viewer_threshold=peak * 2)
        assert {c.protocol for c in hls} == {DeliveryProtocol.HLS}
        assert {c.protocol for c in rtmp} == {DeliveryProtocol.RTMP}

    def test_aggregate_member_seconds_tracks_audience_curve(self):
        broadcast = self._broadcast(audience=60)
        cohorts = build_cohorts(broadcast, 3, 60, hls_viewer_threshold=1e9)
        curve = audience_curve(broadcast)
        total = sum(
            cohort_aggregate(c, curve, watch_seconds=60.0).member_seconds
            for c in cohorts
        )
        # The audience curve integrates to ~ mean_viewers * duration.
        assert total == pytest.approx(60 * broadcast.duration_s, rel=0.15)

    def test_starved_class_stalls_fluidly(self):
        broadcast = self._broadcast(audience=400)
        cohorts = build_cohorts(broadcast, 3, 400, hls_viewer_threshold=1)
        rate_bps = effective_stream_rate_bps(broadcast)
        curve = audience_curve(broadcast)
        for cohort in cohorts:
            aggregate = cohort_aggregate(cohort, curve, watch_seconds=60.0)
            capacity_bps = cohort.bandwidth.downlink_mbps * 1e6
            if capacity_bps >= rate_bps:
                assert aggregate.stall_seconds == 0.0
            else:
                expected = 1.0 - capacity_bps / rate_bps
                assert aggregate.stall_ratio() == pytest.approx(expected)

    def test_joins_and_leaves_balance(self):
        broadcast = self._broadcast(audience=80)
        cohort = build_cohorts(broadcast, 3, 80, hls_viewer_threshold=1e9)[0]
        aggregate = cohort_aggregate(
            cohort, audience_curve(broadcast), watch_seconds=60.0
        )
        # Everyone who joins eventually leaves (the end drains the room).
        assert aggregate.joins == pytest.approx(aggregate.leaves)
        assert aggregate.peak_members <= cohort.members * 3

    def test_class_weights_cover_population(self):
        assert sum(c.weight for c in BANDWIDTH_CLASSES) == pytest.approx(1.0)

    def test_invalid_watch_rejected(self):
        broadcast = self._broadcast()
        cohort = build_cohorts(broadcast, 3, 50, hls_viewer_threshold=1e9)[0]
        with pytest.raises(ValueError):
            cohort_aggregate(
                cohort, audience_curve(broadcast), watch_seconds=0.0
            )


def _reference_viewers_at(broadcast, t):
    """Reference for ``Broadcast.viewers_at``: liveness through
    ``state_at`` and the normalization evaluated on every call."""
    if (state_at(broadcast, t) != BroadcastState.LIVE
            or broadcast.mean_viewers <= 0):
        return 0.0
    x = (t - broadcast.start_time) / broadcast.duration_s
    ramp = AUDIENCE_RAMP_FRACTION
    if x < ramp:
        shape = x / ramp
    else:
        shape = math.exp(-AUDIENCE_DECAY_RATE * (x - ramp) / (1.0 - ramp))
    integral = ramp / 2.0 + (1.0 - ramp) / AUDIENCE_DECAY_RATE * (
        1.0 - math.exp(-AUDIENCE_DECAY_RATE)
    )
    return broadcast.mean_viewers * shape / integral


def _reference_cohort_aggregate(broadcast, cohort, watch_seconds):
    """Reference for ``cohort_aggregate``: each cohort samples the
    audience curve itself, ``AUDIENCE_CURVE_STEPS`` calls per cohort."""
    steps = AUDIENCE_CURVE_STEPS
    share = cohort.members / cohort.audience if cohort.audience else 0.0
    dt_s = broadcast.duration_s / steps
    member_seconds = 0.0
    joins = 0.0
    leaves = 0.0
    peak_members = 0.0
    previous_members = 0.0
    for step in range(steps):
        t_s = broadcast.start_time + (step + 0.5) * dt_s
        members_now = share * _reference_viewers_at(broadcast, t_s)
        member_seconds += members_now * dt_s
        delta = members_now - previous_members
        if delta >= 0.0:
            joins += delta
        else:
            leaves -= delta
        peak_members = max(peak_members, members_now)
        previous_members = members_now
    leaves += previous_members

    sessions = member_seconds / watch_seconds
    rate_ratio = cohort.bandwidth.downlink_mbps * MBPS / cohort.stream_rate_bps
    join_delay_s = (
        SETUP_DELAY_S[cohort.protocol]
        + STARTUP_MEDIA_S[cohort.protocol] / rate_ratio
    )
    buffer_cap_s = BUFFER_CAP_S[cohort.protocol]
    if rate_ratio <= 1.0:
        mean_buffer_s = 0.0
    else:
        fill_rate = rate_ratio - 1.0
        time_to_fill_s = buffer_cap_s / fill_rate
        if time_to_fill_s >= watch_seconds:
            mean_buffer_s = fill_rate * watch_seconds / 2.0
        else:
            ramp_share = time_to_fill_s / watch_seconds
            mean_buffer_s = buffer_cap_s * (1.0 - ramp_share / 2.0)
    return CohortAggregate(
        member_seconds=member_seconds,
        sessions=sessions,
        joins=joins,
        leaves=leaves,
        peak_members=peak_members,
        join_seconds=sessions * join_delay_s,
        stall_seconds=member_seconds * max(0.0, 1.0 - rate_ratio),
        mean_buffer_s=mean_buffer_s,
    )


def _reference_shard(context, start, audiences):
    """``compute_shard`` folded with :func:`_reference_cohort_aggregate`."""
    min_duration_s = joinable_min_duration_s(context.watch_seconds)
    result = ShardResult(shard_index=0, broadcasters=len(audiences),
                         live_broadcasters=0, cohorts=0)
    for offset, audience in enumerate(audiences):
        if audience <= 0:
            continue
        index = start + offset
        result.live_broadcasters += 1
        broadcast = build_broadcast(context.seed, index, audience,
                                    min_duration_s)
        total = CohortAggregate()
        protocol_value = ""
        for cohort in build_cohorts(broadcast, index, audience,
                                    context.hls_viewer_threshold):
            result.cohorts += 1
            protocol_value = cohort.protocol.value
            total.merge(_reference_cohort_aggregate(
                broadcast, cohort, context.watch_seconds))
            result.requests.extend(plan_expansions(
                context.seed, cohort, context.sample_rate,
                context.watch_seconds))
        result.broadcaster_totals.append((index, protocol_value, total))
    return result


ORACLE_WATCH_S = 60.0
ORACLE_HLS_THRESHOLD = 100
#: Broadcasters per (seed, duration floor): 2 x 2 x 500 = 2,000 in all.
ORACLE_PER_CASE = 500


@pytest.fixture(scope="module")
def oracle_broadcasts():
    """``(index, audience, broadcast)`` at seeds 2016 and 2017, with and
    without the joinable-duration floor, audiences spread geometrically
    from 1 to 20,000."""
    cases = []
    for seed in (2016, 2017):
        for floor_s in (0.0, joinable_min_duration_s(ORACLE_WATCH_S)):
            for index in range(ORACLE_PER_CASE):
                audience = round(20_000 ** (index / (ORACLE_PER_CASE - 1)))
                cases.append((index, audience,
                              build_broadcast(seed, index, audience, floor_s)))
    return cases


def _midpoints(broadcast):
    dt_s = broadcast.duration_s / AUDIENCE_CURVE_STEPS
    return [broadcast.start_time + (step + 0.5) * dt_s
            for step in range(AUDIENCE_CURVE_STEPS)]


class TestAudienceCurveOracle:
    """One curve sample per broadcaster, folded into every cohort, is
    bit-identical to each cohort sampling the curve through the
    reference ``viewers_at``."""

    def test_curve_equals_reference_samples(self, oracle_broadcasts):
        assert len(oracle_broadcasts) == 2_000
        for _index, _audience, broadcast in oracle_broadcasts:
            expected = [_reference_viewers_at(broadcast, t)
                        for t in _midpoints(broadcast)]
            assert audience_curve(broadcast) == expected

    def test_every_cohort_equals_reference_loop(self, oracle_broadcasts):
        protocols = set()
        for index, audience, broadcast in oracle_broadcasts:
            curve = audience_curve(broadcast)
            for cohort in build_cohorts(broadcast, index, audience,
                                        ORACLE_HLS_THRESHOLD):
                protocols.add(cohort.protocol)
                got = cohort_aggregate(cohort, curve, ORACLE_WATCH_S)
                expected = _reference_cohort_aggregate(
                    broadcast, cohort, ORACLE_WATCH_S)
                assert got == expected, (index, cohort)
        assert protocols == set(DeliveryProtocol)

    def test_viewers_at_liveness_edges(self, oracle_broadcasts):
        for index, _audience, built in oracle_broadcasts:
            # Population broadcasts start at 0; a shifted copy makes
            # ``start_time + duration_s`` round.
            for broadcast in (built, dataclasses.replace(
                    built, start_time=1_000.0 + index * 7.3)):
                end = broadcast.end_time
                before = math.nextafter(broadcast.start_time, -math.inf)
                last = math.nextafter(end, -math.inf)
                for t in (before, broadcast.start_time, last, end):
                    assert broadcast.viewers_at(t) == \
                        _reference_viewers_at(broadcast, t), (index, t)
                assert broadcast.viewers_at(before) == 0.0
                assert broadcast.viewers_at(last) > 0.0
                assert broadcast.viewers_at(end) == 0.0

    def test_zero_viewer_broadcasts(self, oracle_broadcasts):
        for _index, _audience, built in oracle_broadcasts[::10]:
            broadcast = dataclasses.replace(built, mean_viewers=0.0)
            assert audience_curve(broadcast) == [0.0] * AUDIENCE_CURVE_STEPS
            end = broadcast.end_time
            for t in (math.nextafter(broadcast.start_time, -math.inf),
                      broadcast.start_time, math.nextafter(end, -math.inf),
                      end, *_midpoints(broadcast)):
                assert broadcast.viewers_at(t) == \
                    _reference_viewers_at(broadcast, t) == 0.0

    def test_compute_shard_equals_reference_fold(self):
        population = sample_population(
            SEED, PopulationParameters(viewers=20_000))
        start = 100
        audiences = population.viewers_by_broadcaster[start:start + 2_000]
        assert len(audiences) == 2_000
        context = WorldContext(
            seed=SEED, watch_seconds=ORACLE_WATCH_S,
            hls_viewer_threshold=ORACLE_HLS_THRESHOLD, sample_rate=0.01)
        shard = compute_shard(context, 0, start, audiences)
        assert shard == _reference_shard(context, start, audiences)
        assert shard.requests


class TestSampler:
    def _cohort(self, members=200):
        broadcast = build_broadcast(SEED, 5, audience=members,
                                    min_duration_s=600.0)
        cohorts = build_cohorts(broadcast, 5, members, hls_viewer_threshold=10)
        return max(cohorts, key=lambda c: c.members)

    def test_zero_rate_empty(self):
        assert plan_expansions(SEED, self._cohort(), 0.0, 10.0) == []

    def test_requests_are_deterministic(self):
        cohort = self._cohort()
        a = plan_expansions(SEED, cohort, 0.05, 10.0)
        b = plan_expansions(SEED, cohort, 0.05, 10.0)
        assert a == b
        assert a, "expected a non-empty sample at 5% of 100+ members"

    def test_request_fields_within_bounds(self):
        cohort = self._cohort()
        for request in plan_expansions(SEED, cohort, 0.1, 10.0):
            assert request.broadcaster_index == cohort.broadcaster_index
            assert request.protocol_value == cohort.protocol.value
            assert request.device_name in ("galaxy-s3", "galaxy-s4")
            assert request.age_at_join_s >= MIN_JOIN_AGE_S
            assert (request.age_at_join_s
                    <= cohort.duration_s - 10.0 - END_MARGIN_S + 1e-9)

    def test_expected_count_realized_within_one(self):
        cohort = self._cohort()
        expected = cohort.members * 0.04
        count = len(plan_expansions(SEED, cohort, 0.04, 10.0))
        assert abs(count - expected) <= 1.0

    def test_joinable_floor_covers_window(self):
        assert joinable_min_duration_s(60.0) == pytest.approx(
            MIN_JOIN_AGE_S + 60.0 + END_MARGIN_S)


class TestShardBounds:
    def test_cover_each_index_exactly_once(self):
        for n_items in (0, 1, 2, 5, 16, 33, 1000):
            for shards in (1, 2, 4, 7, 50):
                bounds = shard_bounds(n_items, shards)
                covered = [i for start, stop in bounds
                           for i in range(start, stop)]
                assert covered == list(range(n_items)), (n_items, shards)

    def test_shard_count_never_exceeds_request(self):
        assert len(shard_bounds(10, 100)) <= 10
        assert len(shard_bounds(0, 4)) == 0


class TestPopulationStudy:
    def test_sampled_sessions_match_requests(self):
        study = PopulationStudy(
            StudyConfig(seed=SEED, watch_seconds=4.0),
            PopulationParameters(viewers=400, sample_budget=5),
        )
        result = study.run()
        assert len(result.sampled.sessions) == len(result.world.requests)
        assert result.population.total_viewers == 400
        for qoe, request in zip(result.sampled.sessions,
                                result.world.requests):
            assert qoe.protocol == request.protocol_value
            assert qoe.device == request.device_name
            assert qoe.bandwidth_limit_mbps == request.bandwidth_limit_mbps

    def test_totals_cover_both_protocols(self):
        study = PopulationStudy(
            StudyConfig(seed=SEED, watch_seconds=4.0),
            PopulationParameters(viewers=2_000, sample_budget=0),
        )
        result = study.run()
        assert set(result.totals) == {"rtmp", "hls"}
        assert result.sampled.sessions == []
        for aggregate in result.totals.values():
            assert aggregate.member_seconds > 0.0
            assert 0.0 <= aggregate.stall_ratio() < 1.0
