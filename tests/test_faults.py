"""Tests for repro.faults: seeded fault injection across the stack.

Covers the three layers (retry policies, link impairments, fault plans),
their integration points (Link.send, ApiServer, delivery, players,
sessions), and the tentpole acceptance criteria: a faulted study run is
bit-identical across repeats, and the stalls-vs-loss sweep is monotone.
"""

import pickle

import pytest

from repro.core.config import StudyConfig
from repro.core.session import SessionSetup, ViewingSession
from repro.core.study import AutomatedViewingStudy
from repro.faults import (
    FaultPlan,
    FlapSchedule,
    LinkImpairment,
    LossProcess,
    LossSpec,
    OutageSpec,
    RetryPolicy,
    RetrySchedule,
)
from repro.faults.retry import CRAWLER_RETRY, FAULT_RETRY, HLS_TRANSPORT_RETRY
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.service.selection import DeliveryProtocol
from repro.util.rng import child_rng
from repro.util.units import MBPS

from test_core_session import make_broadcast, run_captured


# ----------------------------------------------------------- retry policy

class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(base_delay_s=1.0, factor=2.0, max_delay_s=5.0,
                             max_attempts=6)
        delays = [policy.delay_for(i) for i in range(1, 7)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0, 5.0]

    def test_budget_exhaustion_returns_none(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.delay_for(3) is not None
        assert policy.delay_for(4) is None

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay_s=2.0, factor=1.0, max_delay_s=2.0,
                             max_attempts=100, jitter_frac=0.25)
        rng = child_rng(1, "jitter-test")
        delays = [policy.delay_for(i, rng) for i in range(1, 101)]
        assert all(1.5 <= d <= 2.5 for d in delays)
        assert len(set(delays)) > 10  # actually jittered

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=1.5)

    def test_schedule_counts_attempts_and_honours_deadline(self):
        policy = RetryPolicy(base_delay_s=1.0, factor=1.0, max_delay_s=1.0,
                             max_attempts=100, deadline_s=3.5)
        schedule = RetrySchedule(policy, started_at=10.0)
        delays = []
        now = 10.0
        while True:
            delay = schedule.next_delay(now)
            if delay is None:
                break
            delays.append(delay)
            now += delay
        # 1 s per retry against a 3.5 s deadline: three fit, not four.
        assert len(delays) == 3
        assert schedule.attempts == 4  # the refusal consumed an attempt

    def test_shared_policies_are_sane(self):
        # First crawler retry matches the historical constant backoff.
        assert CRAWLER_RETRY.delay_for(1) == 2.0
        # HLS default reproduces the old fixed 1 s error re-poll.
        assert HLS_TRANSPORT_RETRY.delay_for(1) == 1.0
        assert HLS_TRANSPORT_RETRY.delay_for(60) == 1.0
        assert FAULT_RETRY.deadline_s is not None

    def test_policies_pickle(self):
        for policy in (CRAWLER_RETRY, HLS_TRANSPORT_RETRY, FAULT_RETRY):
            assert pickle.loads(pickle.dumps(policy)) == policy


# ------------------------------------------------------------ loss models

class TestLossModels:
    def test_bernoulli_rate(self):
        process = LossProcess(LossSpec(rate=0.2), child_rng(3, "bern"))
        losses = sum(process.sample_lost() for _ in range(20_000))
        assert losses == pytest.approx(4000, rel=0.1)

    def test_gilbert_bursts(self):
        spec = LossSpec(model="gilbert", p_good_to_bad=0.05,
                        p_bad_to_good=0.2, bad_loss=0.8)
        process = LossProcess(spec, child_rng(3, "ge"))
        outcomes = [process.sample_lost() for _ in range(20_000)]
        assert 0.0 < sum(outcomes) / len(outcomes) < 0.5
        # Losses cluster: P(loss | previous loss) >> marginal rate.
        follow = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        marginal = sum(outcomes) / len(outcomes)
        assert follow / max(1, sum(outcomes[:-1])) > 2.0 * marginal

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LossSpec(model="teleport")
        with pytest.raises(ValueError):
            LossSpec(rate=1.0)
        with pytest.raises(ValueError):
            LossSpec(rate=0.5, recovery_s=-0.1)


# ------------------------------------------------------- outages and flaps

class TestOutages:
    def test_windows_never_overlap_and_stay_in_horizon(self):
        spec = OutageSpec(rate_per_s=0.2, min_down_s=0.5, max_down_s=3.0)
        windows = spec.windows(child_rng(9, "win"), 0.0, 120.0)
        assert windows
        previous_end = float("-inf")
        for window_start, window_end in windows:
            assert window_start >= previous_end
            assert 0.5 <= window_end - window_start <= 3.0
            assert window_start < 120.0
            previous_end = window_end

    def test_flap_schedule_defers_into_gaps(self):
        flaps = FlapSchedule([(1.0, 2.0), (5.0, 6.5)])
        assert flaps.defer(0.5) == 0.5
        assert flaps.defer(1.5) == 2.0
        assert flaps.defer(6.0) == 6.5
        assert flaps.defer(5.1) == 6.5
        assert flaps.defer(3.0) == 3.0

    def test_flap_schedule_rejects_overlap(self):
        with pytest.raises(ValueError):
            FlapSchedule([(1.0, 3.0), (2.0, 4.0)])


# -------------------------------------------------------------- fault plan

class TestFaultPlan:
    def test_parse_describe_round_trip(self):
        spec = ("loss=0.02,jitter=0.005,flap=0.01:0.5:2,"
                "ingest=0.02:1:3,api5xx=0.05")
        plan = FaultPlan.parse(spec)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_parse_retry_override(self):
        plan = FaultPlan.parse("api5xx=0.1,retry=0.5:2:4")
        assert plan.retry.base_delay_s == 0.5
        assert plan.retry.max_attempts == 4
        assert plan.retry.max_delay_s == pytest.approx(4.0)

    def test_parse_gilbert(self):
        plan = FaultPlan.parse("loss=ge:0.02:0.3:0.5")
        assert plan.loss.model == "gilbert"
        assert plan.loss.p_good_to_bad == 0.02

    def test_parse_none_and_errors(self):
        assert FaultPlan.parse("none").empty
        assert FaultPlan.parse("").empty
        with pytest.raises(ValueError):
            FaultPlan.parse("warp=9")

    def test_plan_pickles(self):
        plan = FaultPlan.parse("loss=0.01,ingest=0.02:1:3")
        assert pickle.loads(pickle.dumps(plan)) == plan


# --------------------------------------------------------- link impairment

class TestLinkImpairment:
    @staticmethod
    def _run_link(impairment):
        from repro.netsim.connection import Connection, Message

        loop = EventLoop()
        net = Network(loop)
        a, b = net.host("a"), net.host("b")
        net.duplex(a, b, rate_bps=10 * MBPS, delay_s=0.02)
        net.link_between(a, b).impairment = impairment
        fwd, rev = net.duplex_paths("a", "b")
        arrivals = []
        conn = Connection(loop, fwd, rev,
                          on_message=lambda m, t: arrivals.append((m.payload, t)))
        for index in range(200):
            conn.send(Message(payload=index, nbytes=1400))
        loop.run()
        return arrivals

    def test_impaired_link_preserves_fifo_and_delivers_everything(self):
        impairment = LinkImpairment(
            child_rng(4, "impair"),
            loss=LossSpec(rate=0.1),
            jitter_s=0.01,
            flaps=FlapSchedule([(0.05, 0.4)]),
        )
        arrivals = self._run_link(impairment)
        assert [p for p, _ in arrivals] == list(range(200))
        times = [t for _, t in arrivals]
        assert times == sorted(times)
        assert impairment.packets_lost > 0
        assert impairment.flap_defer_s > 0.0
        assert impairment.jitter_added_s > 0.0

    def test_loss_only_delays_relative_to_clean_link(self):
        clean = self._run_link(None)
        lossy = self._run_link(
            LinkImpairment(child_rng(4, "impair2"), loss=LossSpec(rate=0.1))
        )
        assert lossy[-1][1] > clean[-1][1]
        for (_, clean_t), (_, lossy_t) in zip(clean, lossy):
            assert lossy_t >= clean_t - 1e-12


# ------------------------------------------------------- faulted sessions

FULL_PLAN = FaultPlan.parse(
    "loss=0.02,jitter=0.005,flap=0.01:0.5:2,ingest=0.02:1:3,api5xx=0.05"
)


def faulted_setup(protocol=DeliveryProtocol.RTMP, plan=FULL_PLAN,
                  seed=5, watch=30.0, limit=100.0):
    from repro.automation.devices import GALAXY_S4

    return SessionSetup(
        broadcast=make_broadcast(seed=seed),
        age_at_join=600.0,
        protocol=protocol,
        device=GALAXY_S4,
        bandwidth_limit_mbps=limit,
        watch_seconds=watch,
        seed=seed,
        faults=plan,
    )


def run_faulted_session(**kwargs):
    return ViewingSession(faulted_setup(**kwargs)).run()


class TestFaultedSessions:
    def test_rtmp_session_survives_full_plan(self):
        qoe = run_faulted_session().qoe
        assert qoe.consistent()
        assert qoe.playback_s > 0.0

    def test_hls_session_survives_full_plan(self):
        qoe = run_faulted_session(protocol=DeliveryProtocol.HLS).qoe
        assert qoe.consistent()

    def test_ingest_outage_reconnects_rtmp(self):
        plan = FaultPlan.parse("ingest=0.1:1:2")  # ~3 outages in 30 s
        qoe = run_faulted_session(plan=plan, seed=11).qoe
        assert qoe.disconnects >= 1
        assert qoe.reconnects == qoe.disconnects  # failover always accepts
        assert any(e.startswith("ingest-outage@") for e in qoe.fault_events)

    def test_no_failover_waits_out_the_outage(self):
        import dataclasses

        plan = dataclasses.replace(FaultPlan.parse("ingest=0.1:1:2"),
                                   ingest_failover=False)
        with_failover = run_faulted_session(
            plan=FaultPlan.parse("ingest=0.1:1:2"), seed=11).qoe
        without = run_faulted_session(plan=plan, seed=11).qoe
        assert without.disconnects >= 1
        # Waiting for the primary costs more playback than failing over.
        assert without.playback_s <= with_failover.playback_s

    def test_api_errors_are_retried_transparently(self):
        plan = FaultPlan.parse("api5xx=0.5")
        artifacts = run_faulted_session(plan=plan, seed=13)
        qoe = artifacts.qoe
        assert qoe.api_retries >= 1
        assert qoe.consistent()

    def test_api_gives_up_gracefully(self):
        # Nearly every request fails and the budget is two retries per
        # call: getBroadcasts gives up, so the session never joins, and
        # the playbackMeta upload gives up too.
        plan = FaultPlan.parse("api5xx=0.95,retry=0.1:1:2")
        qoe = run_faulted_session(plan=plan, seed=13).qoe
        assert qoe.fault_events == ["api-gave-up:getBroadcasts",
                                    "api-gave-up:playbackMeta"]
        assert qoe.api_retries == 4
        assert qoe.join_time_s == qoe.watch_seconds
        assert qoe.consistent()

    def test_rtmp_reconnect_gives_up(self):
        import dataclasses

        # A 10-12 s outage with no failover outlasts two 0.1 s retries.
        plan = dataclasses.replace(
            FaultPlan.parse("ingest=0.1:10:12,retry=0.1:1:2"),
            ingest_failover=False,
        )
        qoe = run_faulted_session(plan=plan, seed=11).qoe
        assert qoe.fault_events[-1] == "player-gave-up"
        assert qoe.disconnects == 1
        assert qoe.reconnects == 0
        assert qoe.consistent()

    def test_faults_off_matches_plan_none(self):
        baseline = run_session_pickle(None)
        empty = run_session_pickle(FaultPlan.parse("none"))
        # An all-disabled plan draws nothing and changes nothing except
        # the retry wrapper's bookkeeping-free path.
        assert pickle.loads(baseline).stalls == pickle.loads(empty).stalls


class TestHlsTransportGiveUp:
    def test_player_gives_up_on_an_unavailable_origin(self):
        from repro.netsim.duplex import DuplexStream
        from repro.player.hls_player import HlsPlayer
        from repro.protocols.http import (
            HttpClient, HttpResponse, HttpServer, HttpStatus,
        )

        loop = EventLoop()
        net = Network(loop)
        phone, cdn = net.host("phone"), net.host("cdn")
        net.duplex(phone, cdn, rate_bps=20 * MBPS, delay_s=0.02)
        streams = [DuplexStream(loop, net, "phone", "cdn", name=f"s{i}")
                   for i in range(2)]
        for stream in streams:
            HttpServer(loop, stream,
                       lambda request, client: HttpResponse(
                           HttpStatus.SERVICE_UNAVAILABLE))
        player = HlsPlayer(
            loop,
            playlist_client=HttpClient(loop, streams[0]),
            segment_client=HttpClient(loop, streams[1]),
            playlist_path="/live/playlist.m3u8",
            broadcast_start=0.0,
            transport_retry=RetryPolicy(0.1, 1.0, 0.1, 3),
        )
        player.start()
        loop.run_until(10.0)
        report = player.finalize(10.0)
        assert player.gave_up
        assert player.transport_retries == 3
        assert not report.started
        assert report.join_time_s == 10.0


def run_session_pickle(plan):
    artifacts = run_faulted_session(plan=plan, seed=5)
    return pickle.dumps(artifacts.qoe)


# ------------------------------------------------ acceptance: determinism

class TestFaultedDeterminism:
    def test_faulted_session_bit_identical_across_runs(self):
        def run():
            artifacts, capture = run_captured(faulted_setup(seed=7))
            trace = [
                (r.timestamp, r.seq, r.payload_bytes, r.is_ack, r.direction)
                for r in capture.records
            ]
            return pickle.dumps(artifacts.qoe), trace

        first_qoe, first_trace = run()
        second_qoe, second_trace = run()
        assert first_qoe == second_qoe
        assert first_trace == second_trace

    def test_faulted_study_bit_identical_across_runs(self):
        def run():
            study = AutomatedViewingStudy(
                StudyConfig(seed=31, faults=FULL_PLAN)
            )
            return study.run_batch(3)

        assert pickle.dumps(run()) == pickle.dumps(run())


# ----------------------------------------------- acceptance: monotonicity

class TestStallsVsLoss:
    def test_sweep_monotone_nondecreasing(self):
        from repro.experiments import fig3_loss
        from repro.experiments.common import Workbench

        workbench = Workbench(seed=2016, sweep_sessions_per_limit=6)
        result = fig3_loss.run(workbench)
        rates = sorted(result.stall_counts)
        assert rates == [0.0, 0.01, 0.05]
        means = [result.mean_stalls(rate) for rate in rates]
        assert means[0] <= means[1] <= means[2]
        assert result.monotone_nondecreasing()
        assert "monotonicity" in result.render()
