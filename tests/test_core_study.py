"""Integration tests for the automated-viewing study harness."""

import pytest

from repro import obs
from repro.core.config import StudyConfig
from repro.core.qoe import SessionQoE, stall_ratio
from repro.core.study import AutomatedViewingStudy, StudyDataset
from repro.service.selection import DeliveryProtocol


@pytest.fixture(scope="module")
def small_dataset():
    study = AutomatedViewingStudy(StudyConfig(seed=2016))
    return study, study.run_batch(14)


def test_stall_ratio_definition():
    assert stall_ratio(0.0, 60.0) == 0.0
    assert stall_ratio(15.0, 45.0) == 0.25
    assert stall_ratio(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        stall_ratio(-1.0, 10.0)


def test_sessions_complete_and_consistent(small_dataset):
    _, ds = small_dataset
    assert len(ds.sessions) == 14
    for s in ds.sessions:
        assert s.consistent(), (s.join_time_s, s.playback_s, s.total_stall_s)
        assert s.watch_seconds == 60.0


def test_both_protocols_observed(small_dataset):
    _, ds = small_dataset
    protocols = {s.protocol for s in ds.sessions}
    assert "rtmp" in protocols  # HLS may be absent in a tiny sample


def test_devices_alternate(small_dataset):
    _, ds = small_dataset
    devices = {s.device for s in ds.sessions}
    assert devices == {"galaxy-s3", "galaxy-s4"}


def test_hls_sessions_come_from_popular_broadcasts(small_dataset):
    _, ds = small_dataset
    for s in ds.sessions:
        if s.protocol == "hls":
            assert s.avg_viewers >= 50
        else:
            assert s.avg_viewers < 150


def test_rtmp_delivery_latency_fast(small_dataset):
    _, ds = small_dataset
    rtmp = [s for s in ds.by_protocol("rtmp") if s.delivery_latency_s is not None]
    assert rtmp
    fast = sum(1 for s in rtmp if s.delivery_latency_s < 0.5)
    assert fast / len(rtmp) > 0.7


def test_dataset_filters(small_dataset):
    _, ds = small_dataset
    assert len(ds.by_limit(100.0)) == len(ds.sessions)
    assert len(ds.by_device("galaxy-s3")) + len(ds.by_device("galaxy-s4")) == len(
        ds.sessions
    )


def test_forced_protocol_batches():
    study = AutomatedViewingStudy(StudyConfig(seed=77))
    ds = study.run_batch(4, forced_protocol=DeliveryProtocol.HLS)
    assert len(ds.sessions) == 4
    assert all(s.protocol == "hls" for s in ds.sessions)


def test_sweep_produces_all_limits():
    study = AutomatedViewingStudy(StudyConfig(seed=88))
    sweep = study.run_bandwidth_sweep(sessions_per_limit=2, limits_mbps=(1.0, 100.0))
    assert set(sweep) == {1.0, 100.0}
    assert all(len(ds.sessions) == 2 for ds in sweep.values())
    for limit, ds in sweep.items():
        assert all(s.bandwidth_limit_mbps == limit for s in ds.sessions)


def test_low_bandwidth_hurts_qoe():
    study = AutomatedViewingStudy(StudyConfig(seed=99))
    starved = study.run_batch(6, bandwidth_limit_mbps=0.5)
    healthy = study.run_batch(6, bandwidth_limit_mbps=100.0)

    def mean_ratio(ds):
        sessions = ds.sessions
        return sum(s.stall_ratio for s in sessions) / len(sessions)

    assert mean_ratio(starved) > mean_ratio(healthy) + 0.05


def test_by_limit_matches_computed_floats():
    # Regression: by_limit used exact float ==, so a session recorded at
    # a computed sweep point (0.1 * 3 != 0.3) was silently dropped from
    # its limit bucket.
    computed = 0.1 * 3
    assert computed != 0.3  # the pre-fix failure mode only exists if so
    session = SessionQoE(
        broadcast_id="b", protocol="rtmp", device="galaxy-s3",
        bandwidth_limit_mbps=computed, watch_seconds=60.0,
        join_time_s=1.0, playback_s=59.0,
    )
    ds = StudyDataset(sessions=[session])
    assert ds.by_limit(0.3) == [session]
    assert ds.by_limit(1.0) == []


def test_batch_shortfall_warns_and_is_surfaced():
    # Regression: a batch whose teleport retry budget ran out silently
    # returned a short dataset; now it warns, counts, and records the
    # shortfall on the dataset.
    study = AutomatedViewingStudy(StudyConfig(seed=5))
    study.world.teleport = lambda rng, exclude=None: None  # dead world
    with obs.session(metrics=True, tracing=False, profiling=False) as telemetry:
        with pytest.warns(RuntimeWarning, match="shortfall"):
            ds = study.run_batch(3)
        counter = telemetry.metrics.get("study_batch_shortfall_total", limit="100")
        assert counter is not None and counter.value == 3.0
    assert ds.sessions == []
    assert ds.shortfall == 3


def test_extend_accumulates_shortfall():
    a = StudyDataset(shortfall=2)
    a.extend(StudyDataset(shortfall=1))
    assert a.shortfall == 3


def test_study_deterministic():
    a = AutomatedViewingStudy(StudyConfig(seed=123)).run_batch(3)
    b = AutomatedViewingStudy(StudyConfig(seed=123)).run_batch(3)
    assert [s.broadcast_id for s in a.sessions] == [s.broadcast_id for s in b.sessions]
    assert [s.join_time_s for s in a.sessions] == [s.join_time_s for s in b.sessions]


def test_zero_workers_run_inline_like_one():
    # Regression: ``--workers 0`` divided by zero while planning chunks.
    zero = AutomatedViewingStudy(StudyConfig(seed=77, workers=0)).run_batch(3)
    one = AutomatedViewingStudy(StudyConfig(seed=77, workers=1)).run_batch(3)
    assert zero.sessions == one.sessions
