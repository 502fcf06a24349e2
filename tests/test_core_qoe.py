"""Tests for the SessionQoE record and helpers."""

import pytest

from repro.core.qoe import SessionQoE, StallEvent, stall_ratio


def make_qoe(**overrides):
    defaults = dict(
        broadcast_id="b" * 13,
        protocol="rtmp",
        device="galaxy-s4",
        bandwidth_limit_mbps=100.0,
        watch_seconds=60.0,
        join_time_s=2.0,
        playback_s=55.0,
        stalls=[StallEvent(start=10.0, duration=3.0)],
    )
    defaults.update(overrides)
    return SessionQoE(**defaults)


def test_stall_derivations():
    qoe = make_qoe()
    assert qoe.stall_count == 1
    assert qoe.total_stall_s == 3.0
    assert qoe.stall_ratio == pytest.approx(3.0 / 58.0)


def test_no_stalls():
    qoe = make_qoe(stalls=[], playback_s=58.0)
    assert qoe.stall_ratio == 0.0
    assert qoe.total_stall_s == 0.0


def test_consistency_check():
    assert make_qoe().consistent()
    assert not make_qoe(join_time_s=10.0).consistent()


def test_delivery_latency_mean():
    qoe = make_qoe(delivery_latency_samples=[0.1, 0.2, 0.3])
    assert qoe.delivery_latency_s == pytest.approx(0.2)
    assert make_qoe().delivery_latency_s is None


def test_stall_ratio_function_edge_cases():
    assert stall_ratio(0.0, 0.0) == 0.0
    assert stall_ratio(30.0, 30.0) == 0.5
    with pytest.raises(ValueError):
        stall_ratio(1.0, -1.0)


def test_multi_stall_mean():
    qoe = make_qoe(stalls=[StallEvent(5.0, 2.0), StallEvent(20.0, 4.0)],
                   playback_s=52.0)
    assert qoe.stall_count == 2
    assert qoe.total_stall_s == 6.0
