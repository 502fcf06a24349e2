"""Event-loop profiling hooks, the O(1) pending counter, the run_until
budget fix, and the determinism regression for the telemetry tentpole:
instrumentation must never change simulation results."""

import pytest

from repro import obs
from repro.core.config import StudyConfig
from repro.core.study import AutomatedViewingStudy
from repro.experiments.common import Workbench
from repro.netsim.events import EventLoop
from repro.obs.profiler import callback_site


# ----------------------------------------------------------- pending counter


def test_pending_tracks_schedule_cancel_and_pop():
    loop = EventLoop()
    assert loop.pending() == 0
    e1 = loop.schedule(1.0, lambda: None)
    e2 = loop.schedule(2.0, lambda: None)
    loop.schedule(3.0, lambda: None)
    assert loop.pending() == 3
    e1.cancel()
    assert loop.pending() == 2
    e1.cancel()  # idempotent: no double decrement
    assert loop.pending() == 2
    loop.step()  # fires e2
    assert loop.pending() == 1
    e2.cancel()  # cancelling an already-fired event must not decrement
    assert loop.pending() == 1
    loop.run()
    assert loop.pending() == 0


def test_queue_depth_high_water():
    loop = EventLoop()
    for delay in range(5):
        loop.schedule(float(delay + 1), lambda: None)
    loop.run()
    assert loop.queue_depth_high_water == 5
    assert loop.pending() == 0


# -------------------------------------------------------- run_until budget


def test_run_until_budget_ignores_cancelled_purges():
    """Cancelled-entry purges must not consume the max_events budget:
    with 50 cancelled entries ahead of 3 live events, a budget of 3
    suffices (it did not before the fix)."""
    loop = EventLoop()
    cancelled = [loop.schedule(0.5, lambda: None) for _ in range(50)]
    for event in cancelled:
        event.cancel()
    fired = []
    for delay in (1.0, 2.0, 3.0):
        loop.schedule(delay, lambda d=delay: fired.append(d))
    loop.run_until(5.0, max_events=3)
    assert fired == [1.0, 2.0, 3.0]
    assert loop.now == 5.0


def test_run_until_budget_still_guards_runaways():
    loop = EventLoop()

    def forever():
        loop.schedule(0.001, forever)

    loop.schedule(0.0, forever)
    with pytest.raises(RuntimeError):
        loop.run_until(10.0, max_events=100)


def test_run_budget_counts_only_fired():
    loop = EventLoop()
    fired = []
    for delay in (1.0, 2.0):
        loop.schedule(delay, lambda d=delay: fired.append(d))
    loop.run(max_events=2)  # exactly enough: drains without raising
    assert fired == [1.0, 2.0]


# ------------------------------------------------------------- profiler


def test_callback_site_names():
    class Widget:
        def tick(self):
            pass

    widget = Widget()
    assert callback_site(widget.tick) == "Widget.tick"
    site = callback_site(lambda: None)
    assert "<lambda>" in site and ":" in site


def test_profiler_attributes_all_fired_events():
    with obs.session() as telemetry:
        loop = EventLoop()

        class Ticker:
            def __init__(self):
                self.count = 0

            def tick(self):
                self.count += 1
                if self.count < 5:
                    loop.schedule(1.0, self.tick)

        ticker = Ticker()
        loop.schedule(0.0, ticker.tick)
        loop.schedule(2.5, lambda: None)
        loop.run()

        profiler = telemetry.profiler
        assert profiler.events_profiled == loop.events_processed == 6
        sites = dict((site, count) for site, count, _ in profiler.table())
        assert sites["Ticker.tick"] == 5
        assert profiler.queue_depth_high_water >= 2
        assert all(wall >= 0.0 for _, _, wall in profiler.table())


def test_loop_without_telemetry_has_no_profiler():
    assert EventLoop().profiler is None


def test_study_metrics_leave_the_profiler_off():
    """``metrics_enabled`` turns on the registry only: the wall-clock
    profiler is its own switch (the CLI sets it under ``--metrics``)."""
    obs.deactivate()
    try:
        study = AutomatedViewingStudy(StudyConfig(
            seed=77, scale=0.02, watch_seconds=4.0, metrics_enabled=True))
        telemetry = obs.active()
        assert telemetry.enabled and telemetry.metrics_on
        assert not telemetry.profiling_on
        assert EventLoop().profiler is None
        study.run_batch(1)
        assert telemetry.metrics.get("study_sessions_total",
                                     limit="100") is not None
        assert telemetry.profiler.events_profiled == 0
        assert not telemetry.profiler.sites
    finally:
        obs.deactivate()


# ---------------------------------------------------------- determinism


def _tiny_workbench(**kwargs) -> Workbench:
    return Workbench(seed=77, unlimited_sessions=4,
                     sweep_sessions_per_limit=1,
                     sweep_limits_mbps=(2.0, 100.0), **kwargs)


def test_qoe_identical_with_and_without_telemetry():
    """The tentpole's hard guarantee: metrics + tracing + profiling on
    must yield bit-identical QoE to the default (telemetry off)."""
    obs.deactivate()
    baseline = _tiny_workbench().unlimited()

    with obs.session(metrics=True, tracing=True, profiling=True) as telemetry:
        instrumented = _tiny_workbench(metrics=True, tracing=True).unlimited()
        # The instrumented run actually recorded things...
        assert telemetry.metrics.get("study_sessions_total", limit="100") is not None
        assert telemetry.tracer.find("session")
        assert telemetry.profiler.events_profiled > 0

    # ...and still matches the baseline exactly.
    assert baseline.sessions == instrumented.sessions
    assert baseline.avatar_bytes == instrumented.avatar_bytes
    assert baseline.down_bytes == instrumented.down_bytes


def test_session_spans_reconstruct_lifecycle():
    with obs.session(metrics=True, tracing=True) as telemetry:
        _tiny_workbench(metrics=True, tracing=True).unlimited()
        tracer = telemetry.tracer
        sessions = tracer.find("session")
        assert sessions
        span = sessions[0]
        children = tracer.children_of(span)
        names = [child.name for child in children]
        assert "session.join" in names
        assert "session.teardown" in names
        # Children tile [0, end] in sim time without gaps or overlaps.
        ordered = sorted(children, key=lambda s: s.sim_start)
        assert ordered[0].sim_start == 0.0
        for before, after in zip(ordered, ordered[1:]):
            assert after.sim_start == pytest.approx(before.sim_end)
        assert ordered[-1].sim_end == pytest.approx(span.sim_end)


def test_metrics_cover_required_series():
    """Acceptance: link-queue, HTTP, stall, and study series appear with
    labels after an instrumented run."""
    with obs.session(metrics=True, tracing=False) as telemetry:
        _tiny_workbench(metrics=True).unlimited()
        names = {family.name for family in telemetry.metrics.families()}
    assert "netsim_link_queue_delay_seconds" in names
    assert "http_requests_total" in names
    assert "http_responses_total" in names
    assert "session_join_seconds" in names
    assert "study_sessions_total" in names
    assert "chat_messages_total" in names


def test_crawl_discovery_metrics():
    from repro.crawler.client import CrawlHarness
    from repro.crawler.deep import DeepCrawler

    with obs.session(metrics=True, tracing=False) as telemetry:
        harness = CrawlHarness(seed=5, mean_concurrent=300)
        crawler = DeepCrawler(harness.clients[0])
        crawler.start()
        harness.run_until(300.0)
        discovered = telemetry.metrics.get(
            "crawl_broadcasts_discovered_total", identity="crawler-0"
        )
        queried = telemetry.metrics.get(
            "crawl_areas_queried_total", identity="crawler-0"
        )
    assert queried is not None and queried.value == len(crawler.result.areas)
    assert discovered is not None
    assert discovered.value == len(crawler.result.discovered)
