"""Stall forensics: the causal-attribution tentpole.

Covers the taxonomy/clamp math, ledger merge algebra, the golden
attribution report (byte-exact), and the hard guarantees: QoE is
bit-identical with attribution on or off, reports are byte-identical
across repeats and worker counts, and under Gilbert-Elliott loss the
dominant attributed stall cause is loss recovery.
"""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments.common import Workbench
from repro.faults.impair import LossSpec
from repro.faults.plan import FaultPlan
from repro.obs.causes import (
    CAUSE_HELP,
    CAUSES,
    KIND_JOIN,
    KIND_STALL,
    CauseCollector,
    clamp_attribution,
)
from repro.obs.export import attribution_jsonl, render_attribution
from repro.service.selection import DeliveryProtocol

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "attribution_golden.txt"

SEED = 77
N_SESSIONS = 4
LIMIT_MBPS = 2.0
GE_PLAN = FaultPlan(
    loss=LossSpec(model="gilbert", p_good_to_bad=0.02,
                  p_bad_to_good=0.3, bad_loss=0.5)
)


# ------------------------------------------------------------ unit: taxonomy


def test_taxonomy_is_sorted_and_documented():
    assert CAUSES == tuple(sorted(CAUSE_HELP))
    assert all(CAUSE_HELP[cause] for cause in CAUSES)
    # The emission sites wired across the tree all use these tags; a
    # removal here must be deliberate (O204 pins call sites to the dict).
    for expected in ("link.queue", "link.loss_recovery", "uplink.outage",
                     "service.packaging", "hls.playlist_wait",
                     "api.retry_backoff", "http.rate_limit",
                     "media.rate_starvation"):
        assert expected in CAUSE_HELP


# --------------------------------------------------------------- unit: clamp


@given(
    raw=st.dictionaries(
        st.sampled_from(CAUSES),
        st.floats(min_value=-1.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        max_size=len(CAUSES),
    ),
    duration=st.floats(min_value=0.0, max_value=1e4,
                       allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_clamp_never_exceeds_duration(raw, duration):
    clamped = clamp_attribution(raw, duration)
    total = 0.0
    for cause in sorted(clamped):
        total += clamped[cause]
    assert total <= duration
    assert all(seconds >= 0.0 for seconds in clamped.values())
    # Only positive raw contributions survive, none invented.
    assert set(clamped) <= {c for c, s in raw.items() if s > 0.0}


def test_clamp_preserves_proportions_and_under_budget_identity():
    raw = {"link.queue": 1.5, "link.loss_recovery": 3.0}
    clamped = clamp_attribution(raw, 2.0)
    assert clamped["link.loss_recovery"] == pytest.approx(2.0 * 3.0 / 4.5)
    assert clamped["link.queue"] == pytest.approx(2.0 * 1.5 / 4.5)
    # Fits inside the window: returned unscaled.
    assert clamp_attribution({"link.queue": 0.25}, 2.0) == {"link.queue": 0.25}
    assert clamp_attribution({}, 2.0) == {}
    assert clamp_attribution({"link.queue": -1.0}, 2.0) == {}
    assert clamp_attribution({"link.queue": 1.0}, 0.0) == {}


# ----------------------------------------------------- unit: collector/merge


def test_collector_windows_diff_against_base():
    collector = CauseCollector()
    collector.set_context("s1")
    collector.add("link.queue", 1.0)
    base = collector.totals()
    collector.add("link.queue", 0.5)
    collector.add("link.throttle", 0.2)
    collector.add("link.flap", -1.0)  # ignored: non-positive
    record = collector.record_window(KIND_STALL, start=10.0, duration=2.0,
                                     base=base)
    assert record.raw == {"link.queue": 0.5, "link.throttle": 0.2}
    assert record.causes == record.raw  # under budget: unscaled
    assert record.dominant() == "link.queue"
    assert collector.records == [record]
    assert record.attributed_s == pytest.approx(0.7)


def _collector_with(context, cause_seconds, windows=0):
    collector = CauseCollector()
    collector.set_context(context)
    for cause, seconds in cause_seconds:
        collector.add(cause, seconds)
    for index in range(windows):
        collector.record_window(KIND_STALL, start=float(index), duration=1.0,
                                base={})
    return collector


def test_merge_is_associative_and_context_keyed():
    snaps = [
        _collector_with("a", [("link.queue", 0.3), ("link.flap", 0.7)],
                        windows=1).snapshot(),
        _collector_with("b", [("link.queue", 1.1)], windows=2).snapshot(),
        _collector_with("c", [("service.outage", 2.0)]).snapshot(),
    ]
    ab = CauseCollector()
    ab.merge_from(snaps[0])
    ab.merge_from(snaps[1])
    left = CauseCollector()
    left.merge_from(ab.snapshot())
    left.merge_from(snaps[2])

    bc = CauseCollector()
    bc.merge_from(snaps[1])
    bc.merge_from(snaps[2])
    right = CauseCollector()
    right.merge_from(snaps[0])
    right.merge_from(bc.snapshot())

    assert left.snapshot() == right.snapshot()
    assert left.ledger_totals() == pytest.approx({
        "link.flap": 0.7, "link.queue": 1.4, "service.outage": 2.0,
    })


# ------------------------------------------------- pipeline: forensics runs

_RUNS = {}


def _forensics_run(workers=1):
    """One faulted, forced-RTMP batch with attribution + health on."""
    if workers in _RUNS:
        return _RUNS[workers]
    obs.deactivate()
    try:
        workbench = Workbench(
            seed=SEED, unlimited_sessions=N_SESSIONS,
            sweep_sessions_per_limit=1, sweep_limits_mbps=(LIMIT_MBPS,),
            causes=True, health=True, workers=workers, faults=GE_PLAN,
        )
        dataset = workbench.study.run_batch(
            N_SESSIONS, bandwidth_limit_mbps=LIMIT_MBPS,
            forced_protocol=DeliveryProtocol.RTMP,
        )
        telemetry = obs.active()
        result = {
            "sessions": dataset.sessions,
            "report": render_attribution(telemetry),
            "jsonl": attribution_jsonl(telemetry),
            "causes": telemetry.causes.snapshot(),
            "records": list(telemetry.causes.records),
            "health": telemetry.health.snapshot(),
        }
    finally:
        obs.deactivate()
    _RUNS[workers] = result
    return result


def test_golden_attribution_report():
    """The ASCII report is byte-exact against the committed fixture.

    Regenerate deliberately (the fixture pins emission sites, clamp
    math, and table formatting all at once)::

        PYTHONPATH=src python tests/regen_attribution_golden.py
    """
    report = _forensics_run(workers=1)["report"]
    assert report == GOLDEN.read_text(encoding="utf-8")


def test_report_byte_identical_across_repeats():
    first = _forensics_run(workers=1)
    _RUNS.pop(1)
    second = _forensics_run(workers=1)
    assert first["report"] == second["report"]
    assert first["jsonl"] == second["jsonl"]
    assert first["causes"] == second["causes"]


@pytest.mark.parametrize("workers", [2, 4])
def test_report_byte_identical_across_worker_counts(workers):
    serial = _forensics_run(workers=1)
    parallel = _forensics_run(workers=workers)
    assert parallel["report"] == serial["report"]
    assert parallel["jsonl"] == serial["jsonl"]
    assert parallel["causes"] == serial["causes"]
    assert parallel["sessions"] == serial["sessions"]


def test_attribution_coverage_and_ge_dominance():
    """Acceptance: >= 95% of stall seconds attributed, and under
    Gilbert-Elliott loss the dominant cause is loss recovery."""
    records = _forensics_run(workers=1)["records"]
    stalls = [r for r in records if r.kind == KIND_STALL]
    assert stalls
    total = sum(r.duration for r in stalls)
    attributed = sum(r.attributed_s for r in stalls)
    assert attributed >= 0.95 * total
    by_cause = {}
    for record in stalls:
        for cause, seconds in record.causes.items():
            by_cause[cause] = by_cause.get(cause, 0.0) + seconds
    dominant = max(sorted(by_cause), key=lambda c: (by_cause[c], c))
    assert dominant == "link.loss_recovery"


def test_per_window_causes_sum_within_duration():
    """Property from the issue: every attributed window's cause seconds
    sum to at most its duration (exactly, not approximately)."""
    records = _forensics_run(workers=1)["records"]
    assert records
    for record in records:
        assert record.kind in (KIND_STALL, KIND_JOIN)
        total = 0.0
        for cause in sorted(record.causes):
            assert record.causes[cause] >= 0.0
            total += record.causes[cause]
        assert total <= record.duration


def test_jsonl_records_round_trip():
    run = _forensics_run(workers=1)
    lines = run["jsonl"].splitlines()
    assert len(lines) == len(run["records"])
    for line, record in zip(lines, run["records"]):
        data = json.loads(line)
        assert data == record.to_dict()


def _strip_causes(qoe):
    return dataclasses.replace(
        qoe,
        join_causes=None,
        stalls=[dataclasses.replace(s, causes=None) for s in qoe.stalls],
    )


def test_qoe_bit_identical_with_attribution_on():
    """The tentpole's hard guarantee: causes + health change nothing in
    the dataset beyond the opt-in cause fields themselves."""
    instrumented = _forensics_run(workers=1)["sessions"]
    obs.deactivate()
    workbench = Workbench(
        seed=SEED, unlimited_sessions=N_SESSIONS,
        sweep_sessions_per_limit=1, sweep_limits_mbps=(LIMIT_MBPS,),
        faults=GE_PLAN,
    )
    baseline = workbench.study.run_batch(
        N_SESSIONS, bandwidth_limit_mbps=LIMIT_MBPS,
        forced_protocol=DeliveryProtocol.RTMP,
    ).sessions
    assert [_strip_causes(q) for q in instrumented] == baseline
    # ...and the instrumented run did attach cause breakdowns.
    assert any(q.join_causes for q in instrumented)
    assert any(s.causes for q in instrumented for s in q.stalls)


def test_session_cause_fields_none_without_attribution():
    obs.deactivate()
    workbench = Workbench(
        seed=SEED, unlimited_sessions=N_SESSIONS,
        sweep_sessions_per_limit=1, sweep_limits_mbps=(LIMIT_MBPS,),
    )
    sessions = workbench.study.run_batch(2).sessions
    assert all(q.join_causes is None for q in sessions)
    assert all(s.causes is None for q in sessions for s in q.stalls)
