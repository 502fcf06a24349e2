"""Tests for the playout buffer's QoE accounting."""

import pytest

from repro import obs
from repro.netsim.events import EventLoop
from repro.player.buffer import PlayoutBuffer


def make(loop=None, start=2.0, rebuffer=1.0, broadcast_start=0.0):
    loop = loop or EventLoop()
    return loop, PlayoutBuffer(
        loop,
        start_threshold_s=start,
        rebuffer_threshold_s=rebuffer,
        broadcast_start=broadcast_start,
    )


def test_thresholds_validated():
    loop = EventLoop()
    with pytest.raises(ValueError):
        PlayoutBuffer(loop, start_threshold_s=0, rebuffer_threshold_s=1, broadcast_start=0)
    with pytest.raises(ValueError):
        PlayoutBuffer(loop, start_threshold_s=1, rebuffer_threshold_s=0, broadcast_start=0)


def test_never_started_all_join_time():
    loop, buf = make()
    loop.schedule(0.5, lambda: buf.on_media(1.0))  # below start threshold
    loop.run()
    report = buf.finalize(60.0)
    assert not report.started
    assert report.join_time_s == 60.0
    assert report.playback_s == 0.0
    assert report.mean_playback_latency_s is None


def test_playback_starts_at_threshold():
    loop, buf = make(start=2.0)
    buf.set_play_origin(0.0)
    loop.schedule(0.5, lambda: buf.on_media(1.0))
    loop.schedule(1.0, lambda: buf.on_media(2.5))  # 2.5s media >= threshold
    loop.run_until(10.0)
    report = buf.finalize(10.0)
    assert report.started
    assert report.join_time_s == pytest.approx(1.0)
    # Only 2.5 s of media ever arrives; the rest of the session stalls.
    assert report.playback_s == pytest.approx(2.5)
    assert report.stall_count == 1
    assert report.stalls[0].duration == pytest.approx(10.0 - 1.0 - 2.5)


def test_stall_when_buffer_runs_dry():
    loop, buf = make(start=1.0, rebuffer=1.0)
    buf.set_play_origin(0.0)
    # 3 seconds of media at t=0, nothing more until t=10.
    buf.on_media(3.0)
    loop.schedule(10.0, lambda: buf.on_media(20.0))
    loop.run_until(15.0)
    report = buf.finalize(15.0)
    assert report.started
    assert report.stall_count == 1
    stall = report.stalls[0]
    assert stall.start == pytest.approx(3.0)   # playhead hits 3.0s of media
    assert stall.duration == pytest.approx(7.0)
    assert report.playback_s == pytest.approx(15.0 - 7.0)


def test_stall_in_progress_runs_to_session_end():
    loop, buf = make(start=1.0)
    buf.set_play_origin(0.0)
    buf.on_media(2.0)
    loop.run_until(30.0)
    report = buf.finalize(30.0)
    assert report.stall_count == 1
    assert report.stalls[0].duration == pytest.approx(28.0)
    assert report.join_time_s + report.playback_s + report.total_stall_s == pytest.approx(30.0)


def test_playback_latency_constant_while_playing():
    loop, buf = make(start=1.0, broadcast_start=-100.0)
    # Media up to pts 102 arrives at t=0: playhead starts at origin 102? No —
    # origin is the first frontier seen.
    buf.set_play_origin(100.0)
    buf.on_media(102.0)
    loop.run_until(2.0)
    report = buf.finalize(2.0)
    # Playing from t=0 at media 100, broadcast started at -100:
    # latency = 0 - 100 - (-100) = 0... playhead media=100 captured at t=0.
    assert report.mean_playback_latency_s == pytest.approx(0.0, abs=1e-9)


def test_playback_latency_reflects_buffer_age():
    loop, buf = make(start=1.0, broadcast_start=-10.0)
    # Media captured long ago (pts 0-2 of a broadcast started at t=-10)
    # arrives now: playing old frames means high latency.
    buf.set_play_origin(0.0)
    buf.on_media(2.0)
    loop.run_until(1.0)
    report = buf.finalize(1.0)
    # At t=0 playhead is at pts 0, captured at -10: latency 10 s.
    assert report.mean_playback_latency_s == pytest.approx(10.0)


def test_latency_grows_after_stall():
    loop, buf = make(start=1.0, rebuffer=1.0, broadcast_start=0.0)
    buf.set_play_origin(0.0)
    buf.on_media(2.0)
    loop.schedule(7.0, lambda: buf.on_media(60.0))
    loop.run_until(20.0)
    report = buf.finalize(20.0)
    assert report.stall_count == 1
    # Two playing intervals; the second has 5 s more latency.
    assert report.mean_playback_latency_s > 0


def test_set_play_origin_after_start_rejected():
    loop, buf = make(start=0.5)
    buf.set_play_origin(0.0)
    buf.on_media(5.0)
    loop.run_until(1.0)
    with pytest.raises(RuntimeError):
        buf.set_play_origin(0.0)


def test_finalize_twice_rejected():
    loop, buf = make()
    buf.finalize(1.0)
    with pytest.raises(RuntimeError):
        buf.finalize(2.0)


def test_media_after_finalize_ignored():
    loop, buf = make()
    buf.finalize(1.0)
    buf.on_media(100.0)  # no crash, no effect


def test_buffer_level_tracking():
    loop, buf = make(start=1.0)
    buf.set_play_origin(0.0)
    buf.on_media(5.0)
    loop.run_until(2.0)
    assert buf.playing
    assert buf.buffer_level_s() == pytest.approx(3.0)


def test_report_consistency_invariant():
    loop, buf = make(start=1.0, rebuffer=1.0)
    buf.set_play_origin(0.0)
    buf.on_media(2.0)
    loop.schedule(5.0, lambda: buf.on_media(8.0))
    loop.schedule(12.0, lambda: buf.on_media(30.0))
    loop.run_until(20.0)
    report = buf.finalize(20.0)
    assert report.join_time_s + report.playback_s + report.total_stall_s == pytest.approx(20.0)


def test_buffer_level_is_sampled_into_the_active_registry():
    """The level series is resolved once per registry, so a buffer that
    outlives a telemetry scope samples into the next one."""
    loop, buf = make(start=1.0)
    with obs.session(metrics=True, tracing=False, profiling=False) as first:
        buf.on_media(0.5)
        buf.on_media(1.5)  # playback starts here
    with obs.session(metrics=True, tracing=False, profiling=False) as second:
        buf.on_media(2.5)
    assert first.metrics.get("player_buffer_level_seconds").count == 2
    assert second.metrics.get("player_buffer_level_seconds").count == 1
