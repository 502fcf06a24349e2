"""Tests for process-parallel session execution (repro.core.parallel).

The headline guarantee: a parallel study batch is *bit-identical* to the
serial one — same sessions, same order, same bytes — because sampling is
serial and each session is hermetic given its setup.
"""

import json
import math
import pickle

import pytest

from repro import obs
from repro.automation.devices import GALAXY_S3
from repro.core.config import StudyConfig
from repro.core.parallel import chunk_bounds, run_sessions, run_tasks
from repro.core.session import SessionSetup
from repro.core.study import AutomatedViewingStudy
from repro.obs.metrics import MetricsRegistry
from repro.service.selection import DeliveryProtocol

SEED = 4242
N_SESSIONS = 4


def run_study(workers):
    study = AutomatedViewingStudy(StudyConfig(seed=SEED))
    return study.run_batch(N_SESSIONS, workers=workers)


@pytest.fixture(scope="module")
def serial_dataset():
    return run_study(workers=1)


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_dataset_bit_identical_to_serial(serial_dataset, workers):
    parallel = run_study(workers=workers)
    assert parallel.sessions == serial_dataset.sessions
    assert parallel.avatar_bytes == serial_dataset.avatar_bytes
    assert parallel.down_bytes == serial_dataset.down_bytes
    assert parallel.shortfall == serial_dataset.shortfall


FAULT_PLAN_SPEC = "loss=0.02,jitter=0.005,ingest=0.03:1:2,api5xx=0.1"


def run_faulted_study(workers):
    from repro.faults import FaultPlan

    study = AutomatedViewingStudy(
        StudyConfig(seed=SEED, faults=FaultPlan.parse(FAULT_PLAN_SPEC))
    )
    return study.run_batch(N_SESSIONS, workers=workers)


@pytest.fixture(scope="module")
def serial_faulted_dataset():
    return run_faulted_study(workers=1)


@pytest.mark.parametrize("workers", [2, 4])
def test_faulted_parallel_bit_identical_to_serial(serial_faulted_dataset, workers):
    """Fault plans pickle into the workers and replay bit-identically:
    fault randomness is per-session child streams, never shared state."""
    parallel = run_faulted_study(workers=workers)
    assert parallel.sessions == serial_faulted_dataset.sessions
    assert parallel.avatar_bytes == serial_faulted_dataset.avatar_bytes
    assert parallel.down_bytes == serial_faulted_dataset.down_bytes
    assert parallel.shortfall == serial_faulted_dataset.shortfall
    # The plan was live, not a no-op: fault bookkeeping reached the QoE.
    assert any(
        s.api_retries or s.transport_retries or s.disconnects or s.fault_events
        for s in parallel.sessions
    )


def _faulted_batch_telemetry(workers):
    """Merged telemetry of a 9-session faulted batch with every pooled
    surface on: 2 and 4 workers cut it into 5 and 9 chunks."""
    from repro.faults import FaultPlan

    study = AutomatedViewingStudy(StudyConfig(
        seed=SEED, watch_seconds=8.0, faults=FaultPlan.parse(FAULT_PLAN_SPEC),
    ))
    with obs.session(metrics=True, tracing=False, profiling=False,
                     causes=True, health=True) as telemetry:
        dataset = study.run_batch(9, bandwidth_limit_mbps=2.0, workers=workers)
    assert len(dataset.sessions) == 9
    return {
        "metrics": telemetry.metrics.snapshot(),
        "causes": telemetry.causes.snapshot(),
        "health": telemetry.health.snapshot(),
    }


@pytest.fixture(scope="module")
def batch_telemetry():
    return {workers: _faulted_batch_telemetry(workers) for workers in (1, 2, 4)}


def test_merged_telemetry_is_worker_count_invariant(batch_telemetry):
    """Snapshots are taken per session, not per chunk, so the parent's
    fold — float accumulation order included — is the same however the
    batch was chunked.  Compared as JSON text (floats print exactly): a
    pickle would also encode which strings happen to be shared objects."""
    assert batch_telemetry[2]["causes"]["ledger"], "attribution was off"
    assert (json.dumps(batch_telemetry[2], sort_keys=True)
            == json.dumps(batch_telemetry[4], sort_keys=True))


def _series(snapshot):
    """(family, labels) -> (kind, child entry) over a metrics snapshot."""
    return {
        (family["name"], repr(child["labels"])): (family["kind"], child)
        for family in snapshot["families"]
        for child in family["children"]
    }


def test_pooled_metrics_equal_the_serial_batch(batch_telemetry):
    """The serial loop records straight into the parent registry; the
    pooled fold adds the same events per session.  Counts agree exactly;
    float seconds totals differ only by summation order."""
    serial = _series(batch_telemetry[1]["metrics"])
    pooled = _series(batch_telemetry[2]["metrics"])
    assert pooled.keys() == serial.keys()
    checked = 0
    for key, (kind, child) in serial.items():
        other = pooled[key][1]
        if kind == "histogram":
            assert other["count"] == child["count"], key
            assert other["bucket_counts"] == child["bucket_counts"], key
        elif kind == "counter" and key[0].endswith("_seconds_total"):
            assert math.isclose(other["value"], child["value"],
                                rel_tol=1e-9), key
        elif kind == "counter":
            assert other["value"] == child["value"], key
        else:
            continue
        checked += 1
    assert checked > 0


def test_parallel_metrics_fold_into_parent():
    study = AutomatedViewingStudy(StudyConfig(seed=SEED))
    with obs.session(metrics=True, tracing=False, profiling=False) as telemetry:
        ds = study.run_batch(N_SESSIONS, workers=2)
        counter = telemetry.metrics.get("study_sessions_total", limit="100")
        assert counter is not None
        assert counter.value == float(len(ds.sessions))
        # The parent itself only records sampling-phase counters; any
        # histogram observation in its registry must have been merged in
        # from a worker snapshot.
        histogram_observations = sum(
            child["count"]
            for family in telemetry.metrics.snapshot()["families"]
            if family["kind"] == "histogram"
            for child in family["children"]
        )
        assert histogram_observations > 0


def test_worker_crash_propagates_to_parent():
    # A poisoned setup must fail the batch loudly in the parent (via
    # Future.result()), not hang the pool or silently drop the session.
    poisoned = SessionSetup(
        broadcast=None,
        age_at_join=10.0,
        protocol=DeliveryProtocol.RTMP,
        device=GALAXY_S3,
        seed=1,
    )
    with pytest.raises((AttributeError, TypeError)):
        run_sessions(StudyConfig(seed=SEED), obs.TelemetrySpec(), [poisoned],
                     workers=2)


def _poisoned_setup():
    return SessionSetup(
        broadcast=None,
        age_at_join=10.0,
        protocol=DeliveryProtocol.RTMP,
        device=GALAXY_S3,
        seed=1,
    )


def test_worker_exception_carries_the_failing_cell_index():
    """The re-raised exception names the *global* index of the poisoned
    setup — an instance attribute set in the worker, so it must survive
    the pickle trip — and keeps the remote traceback chained."""
    study = AutomatedViewingStudy(StudyConfig(seed=SEED, watch_seconds=4.0))
    setups = []
    while len(setups) < 9:
        setup = study._next_setup(100.0)
        if setup is not None:
            setups.append(setup)
    poison_at = 3  # with 9 setups and 2 workers, chunks are 2 wide:
    setups[poison_at] = _poisoned_setup()  # offset 1 inside chunk [2, 4)
    with pytest.raises((AttributeError, TypeError)) as excinfo:
        run_sessions(StudyConfig(seed=SEED), obs.TelemetrySpec(), setups,
                     workers=2)
    assert getattr(excinfo.value, "cell_index", None) == poison_at
    # concurrent.futures chains the worker-side traceback as the cause.
    assert excinfo.value.__cause__ is not None
    assert "_run_chunk" in str(excinfo.value.__cause__)


# ----------------------------------------------------------- run_tasks

def _triple(value):
    return value * 3


def _fail_on_negative(value):
    if value < 0:
        raise ValueError(f"bad item {value}")
    return value


def test_run_tasks_returns_results_in_input_order():
    observed = []
    results = run_tasks(
        _triple, [5, 1, 4, 2], workers=2,
        on_result=lambda index, result: observed.append((index, result)),
    )
    assert results == [15, 3, 12, 6]
    # on_result fires in submission order, which is what lets the
    # campaign runner checkpoint incrementally and deterministically.
    assert observed == [(0, 15), (1, 3), (2, 12), (3, 6)]


def test_run_tasks_exception_carries_the_task_index():
    with pytest.raises(ValueError) as excinfo:
        run_tasks(_fail_on_negative, [1, 2, -7, 4], workers=2)
    assert getattr(excinfo.value, "task_index", None) == 2
    assert excinfo.value.__cause__ is not None


def _observe_run_tasks(workers):
    observed = []
    results = run_tasks(
        _triple, [5, 1, 4, 2], workers=workers,
        on_result=lambda index, result: observed.append((index, result)),
    )
    with pytest.raises(ValueError) as excinfo:
        run_tasks(_fail_on_negative, [1, 2, -7, 4], workers=workers)
    return results, observed, excinfo.value.task_index


def test_run_tasks_runs_inline_below_two_workers():
    """One worker runs the items inline through the same shim: same
    results, same on_result order, same task_index on failure."""
    assert _observe_run_tasks(1) == _observe_run_tasks(2)
    # A single item never starts a pool either, so even a callable that
    # cannot be pickled runs.
    assert run_tasks(lambda value: value + 1, [1], workers=4) == [2]


def test_run_tasks_rejects_unpicklable_task_in_a_pool():
    """Pooled tasks cross the process boundary by pickle: a lambda or a
    nested function fails inside the call — no hang, no partial result
    list.  (The exception type differs across Python versions.)"""
    def nested(value):
        return value + 1

    for task in (lambda value: value + 1, nested):
        with pytest.raises((pickle.PicklingError, AttributeError)):
            run_tasks(task, [1, 2, 3], workers=2)


def test_run_sessions_runs_inline_below_two_workers():
    """run_sessions inherits the inline path: one worker returns the same
    results and per-session snapshots as a pool of two."""
    config = StudyConfig(seed=SEED, watch_seconds=4.0)
    study = AutomatedViewingStudy(config)
    setups = []
    while len(setups) < 3:
        setup = study._next_setup(100.0)
        if setup is not None:
            setups.append(setup)
    spec = obs.TelemetrySpec(metrics=True)
    inline = run_sessions(config, spec, setups, workers=1)
    pooled = run_sessions(config, spec, setups, workers=2)
    assert inline[0] == pooled[0]
    assert (json.dumps(inline[1], sort_keys=True)
            == json.dumps(pooled[1], sort_keys=True))
    assert len(inline[1]) == len(setups)
    assert run_sessions(config, spec, [], workers=1) == ([], [])


def test_chunk_bounds_cover_each_index_exactly_once():
    for n_items in (0, 1, 2, 5, 16, 33):
        for workers in (2, 4, 8):
            bounds = chunk_bounds(n_items, workers)
            covered = [i for start, stop in bounds for i in range(start, stop)]
            assert covered == list(range(n_items)), (n_items, workers)


def _registry(observations, counter_by, gauge_to):
    registry = MetricsRegistry()
    registry.counter("chunk_sessions_total", limit="1").inc(counter_by)
    registry.gauge("chunk_progress", limit="1").set(gauge_to)
    histogram = registry.histogram("chunk_join_seconds")
    for value in observations:
        histogram.observe(value)
    return registry


def test_metrics_merge_is_associative():
    snaps = [
        _registry([0.1, 0.4], 2.0, 3.0).snapshot(),
        _registry([2.0], 5.0, 1.0).snapshot(),
        _registry([0.02, 7.5, 0.3], 1.0, 9.0).snapshot(),
    ]
    # (A + B) + C
    ab = MetricsRegistry()
    ab.merge_from(snaps[0])
    ab.merge_from(snaps[1])
    left = MetricsRegistry()
    left.merge_from(ab.snapshot())
    left.merge_from(snaps[2])
    # A + (B + C)
    bc = MetricsRegistry()
    bc.merge_from(snaps[1])
    bc.merge_from(snaps[2])
    right = MetricsRegistry()
    right.merge_from(snaps[0])
    right.merge_from(bc.snapshot())
    assert left.snapshot() == right.snapshot()


def test_metrics_merge_is_commutative():
    snaps = [
        _registry([0.5], 1.0, 2.0).snapshot(),
        _registry([0.25, 3.0], 4.0, 1.0).snapshot(),
    ]
    forward = MetricsRegistry()
    forward.merge_from(snaps[0])
    forward.merge_from(snaps[1])
    backward = MetricsRegistry()
    backward.merge_from(snaps[1])
    backward.merge_from(snaps[0])
    assert forward.snapshot() == backward.snapshot()
