"""Integration tests: full viewing sessions over the simulated testbed."""

import pickle
import random

import pytest

from repro.automation.devices import GALAXY_S3, GALAXY_S4
from repro.core.session import SessionSetup, ViewingSession
from repro.service.broadcast import sample_broadcast
from repro.service.geo import POPULATION_CENTERS, GeoPoint
from repro.service.selection import DeliveryProtocol


def make_broadcast(seed=5, mean_viewers=12.0, duration=7200.0):
    b = sample_broadcast(random.Random(seed), 0.0, GeoPoint(41.0, 28.9),
                         POPULATION_CENTERS[17])  # Istanbul
    b.mean_viewers = mean_viewers
    b.duration_s = duration
    return b


def session_setup(protocol=DeliveryProtocol.RTMP, limit=100.0, watch=30.0,
                  viewers=12.0, chat_ui_on=True, cache_avatars=False, seed=5,
                  device=GALAXY_S4):
    return SessionSetup(
        broadcast=make_broadcast(seed=seed, mean_viewers=viewers),
        age_at_join=600.0,
        protocol=protocol,
        device=device,
        bandwidth_limit_mbps=limit,
        watch_seconds=watch,
        chat_ui_on=chat_ui_on,
        cache_avatars=cache_avatars,
        seed=seed,
    )


def run_session(**kwargs):
    return ViewingSession(session_setup(**kwargs)).run()


def run_captured(setup):
    """Run ``setup`` with the tether capture on: ``(artifacts, capture)``."""
    session = ViewingSession(setup)
    capture = session.testbed.start_capture()
    return session.run(), capture


class TestRtmpSession:
    def test_smooth_playback_unlimited(self):
        artifacts = run_session()
        qoe = artifacts.qoe
        assert qoe.protocol == "rtmp"
        assert qoe.join_time_s < 4.0
        assert qoe.playback_s > 20.0
        assert qoe.consistent()

    def test_delivery_latency_sub_second(self):
        qoe = run_session().qoe
        samples = sorted(qoe.delivery_latency_samples)
        assert samples
        # The median sample is fast; a mid-session uplink outage may
        # inflate the mean (that is the paper's stall mechanism).
        assert 0.0 < samples[len(samples) // 2] < 0.5
        assert qoe.delivery_latency_s < 2.5

    def test_playback_latency_a_few_seconds(self):
        qoe = run_session().qoe
        assert 1.0 < qoe.playback_latency_s < 6.0

    def test_media_stats_recovered(self):
        qoe = run_session().qoe
        assert 100_000 < qoe.video_bitrate_bps < 1_500_000
        assert 10 <= qoe.avg_qp <= 51
        assert 15 < qoe.avg_fps < 33

    def test_starved_at_very_low_bandwidth(self):
        qoe = run_session(limit=0.3, viewers=60.0).qoe
        assert qoe.stall_ratio > 0.2 or qoe.join_time_s > 10.0

    def test_playback_meta_shape(self):
        artifacts = run_session()
        meta = artifacts.playback_meta
        assert meta["protocol"] == "rtmp"
        assert "avg_stall_s" in meta  # RTMP reports stall durations
        assert "n_stalls" in meta


class TestHlsSession:
    def test_higher_latency_than_rtmp(self):
        rtmp = run_session(protocol=DeliveryProtocol.RTMP, viewers=300.0).qoe
        hls = run_session(protocol=DeliveryProtocol.HLS, viewers=300.0).qoe
        assert hls.delivery_latency_s > 5 * rtmp.delivery_latency_s
        assert hls.delivery_latency_s > 2.0
        assert hls.playback_latency_s > rtmp.playback_latency_s

    def test_hls_meta_has_no_stall_durations(self):
        artifacts = run_session(protocol=DeliveryProtocol.HLS, viewers=300.0)
        assert artifacts.playback_meta["protocol"] == "hls"
        assert "avg_stall_s" not in artifacts.playback_meta

    def test_hls_playback_works(self):
        qoe = run_session(protocol=DeliveryProtocol.HLS, viewers=300.0).qoe
        assert qoe.playback_s > 15.0
        assert qoe.consistent()


class TestChatTraffic:
    def test_chat_on_downloads_avatars(self):
        artifacts = run_session(viewers=200.0, chat_ui_on=True)
        assert artifacts.avatar_requests > 5
        assert artifacts.avatar_bytes > 100_000

    def test_chat_off_no_avatars_but_messages_flow(self):
        artifacts = run_session(viewers=200.0, chat_ui_on=False)
        assert artifacts.avatar_requests == 0
        assert artifacts.chat_messages > 5

    def test_chat_on_multiplies_traffic(self):
        off = run_session(viewers=400.0, chat_ui_on=False)
        on = run_session(viewers=400.0, chat_ui_on=True)
        assert on.total_down_bytes > 2 * off.total_down_bytes

    def test_avatar_cache_reduces_traffic(self):
        uncached = run_session(viewers=400.0, cache_avatars=False)
        cached = run_session(viewers=400.0, cache_avatars=True)
        assert cached.avatar_bytes < uncached.avatar_bytes

    def test_duplicate_downloads_without_cache(self):
        # The paper: "some pictures were downloaded multiple times, which
        # indicates that the app does not cache them."
        artifacts = run_session(viewers=800.0, watch=40.0, cache_avatars=False)
        assert artifacts.avatar_requests > 10


class TestDeterminism:
    def test_same_seed_same_qoe(self):
        a = run_session(seed=9).qoe
        b = run_session(seed=9).qoe
        assert a.join_time_s == b.join_time_s
        assert a.stall_count == b.stall_count
        assert a.delivery_latency_samples == b.delivery_latency_samples

    def test_devices_differ_in_fps_only_mechanism(self):
        s3 = run_session(seed=9, device=GALAXY_S3).qoe
        s4 = run_session(seed=9, device=GALAXY_S4).qoe
        assert s3.avg_fps < s4.avg_fps
        assert s3.join_time_s == pytest.approx(s4.join_time_s, abs=0.5)


def test_capture_recorded_traffic():
    _, capture = run_captured(session_setup())
    assert capture.total_bytes(direction="down") > 500_000
    assert capture.total_bytes(direction="up") > 1_000


def test_capture_only_observes():
    """A capture adds taps, never events: the same setup runs to the same
    results and the same loop event count with and without one."""
    def run(capture: bool):
        session = ViewingSession(session_setup(viewers=200.0, watch=10.0,
                                               seed=11))
        trace = session.testbed.start_capture() if capture else None
        artifacts = session.run()
        return (pickle.dumps(artifacts.qoe), artifacts.avatar_bytes,
                artifacts.total_down_bytes,
                session.loop.events_processed), trace

    plain, _ = run(capture=False)
    captured, trace = run(capture=True)
    assert len(trace) > 0 and plain[1] > 0
    assert captured == plain
