"""Tests for the live source driver, RTMP delivery and the HLS origin."""

import random

import pytest

from repro.media.frames import EncodedFrame
from repro.netsim.connection import Connection
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.protocols.http import HttpRequest, HttpStatus
from repro.protocols.rtmp import RtmpPushSession
from repro.service.broadcast import sample_broadcast
from repro.service.delivery import (
    HlsOrigin,
    LiveSourceDriver,
    RtmpDelivery,
    UplinkModel,
)
from repro.service.geo import POPULATION_CENTERS, GeoPoint


def make_broadcast(seed=1, mean_viewers=10.0, duration=3600.0):
    b = sample_broadcast(random.Random(seed), 0.0, GeoPoint(40.0, -74.0),
                         POPULATION_CENTERS[0])
    b.mean_viewers = mean_viewers
    b.duration_s = duration
    return b


class TestUplinkModel:
    def test_outage_schedule_within_window(self):
        model = UplinkModel(outage_rate_per_s=0.05)
        outages = model.outage_schedule(random.Random(1), 0.0, 600.0)
        assert outages
        assert all(0.0 <= s < 600.0 and e > s for s, e in outages)

    def test_no_outages_when_rate_zero(self):
        model = UplinkModel(outage_rate_per_s=0.0)
        assert model.outage_schedule(random.Random(1), 0.0, 600.0) == []

    def test_arrival_after_capture(self):
        model = UplinkModel()
        rng = random.Random(2)
        for t in (0.0, 5.0, 100.0):
            arrival, deferred = model.arrival_with_defer(t, rng, [])
            assert arrival > t
            assert deferred == 0.0

    def test_outage_defers_arrival(self):
        model = UplinkModel(base_delay_s=0.1, jitter_s=0.0)
        arrival, deferred = model.arrival_with_defer(
            10.0, random.Random(3), [(10.05, 14.0)]
        )
        assert arrival >= 14.0
        assert deferred == pytest.approx(arrival - 10.1)


class TestLiveSourceDriver:
    def test_history_vs_future_split(self):
        loop = EventLoop()
        driver = LiveSourceDriver(loop, make_broadcast(), age_at_join=10.0,
                                  horizon_s=5.0, generate_from=5.0)
        received = []
        driver.add_sink(lambda f, t: received.append((f, t)))
        driver.start()
        # History: frames that arrived at the ingest before the join.
        assert driver.history
        assert all(t <= 0.0 for t, _ in driver.history)
        loop.run_until(5.0)
        assert received
        assert all(t > 0.0 for _, t in received)

    def test_media_timeline_continuous_across_join(self):
        loop = EventLoop()
        driver = LiveSourceDriver(loop, make_broadcast(), age_at_join=8.0,
                                  horizon_s=4.0, generate_from=4.0)
        pts = []
        driver.add_sink(lambda f, t: pts.append(f.pts) if isinstance(f, EncodedFrame) else None)
        driver.start()
        history_pts = [f.pts for _, f in driver.history if isinstance(f, EncodedFrame)]
        assert min(history_pts) == pytest.approx(4.0, abs=0.5)
        loop.run_until(4.0)
        assert max(pts) == pytest.approx(12.0, abs=0.5)

    def test_ntp_timestamps_near_capture_times(self):
        loop = EventLoop()
        driver = LiveSourceDriver(loop, make_broadcast(), age_at_join=2.0,
                                  horizon_s=10.0, broadcaster_clock_offset_s=0.05)
        stamps = []

        def sink(frame, arrival):
            if isinstance(frame, EncodedFrame) and frame.ntp_timestamp is not None:
                stamps.append((frame.ntp_timestamp, arrival))

        driver.add_sink(sink)
        driver.start()
        loop.run_until(10.0)
        assert stamps
        for ntp, arrival in stamps:
            # Arrival at ingest is capture + uplink; the NTP stamp carries
            # the clock offset, so the difference is small and positive-ish.
            assert -0.2 < arrival - ntp < 8.0

    def test_cannot_start_twice(self):
        loop = EventLoop()
        driver = LiveSourceDriver(loop, make_broadcast(), age_at_join=1.0, horizon_s=2.0)
        driver.start()
        with pytest.raises(RuntimeError):
            driver.start()

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            LiveSourceDriver(EventLoop(), make_broadcast(), age_at_join=-1.0, horizon_s=5.0)


class TestRtmpDelivery:
    def _wire(self, age=10.0):
        loop = EventLoop()
        net = Network(loop)
        server, phone = net.host("ingest"), net.host("phone")
        net.duplex(server, phone, rate_bps=50e6, delay_s=0.02)
        fwd, rev = net.duplex_paths("ingest", "phone")
        received = []
        conn = Connection(loop, fwd, rev,
                          on_message=lambda m, t: received.append((m.payload, t)))
        driver = LiveSourceDriver(loop, make_broadcast(), age_at_join=age,
                                  horizon_s=10.0, generate_from=age - 3.0)
        delivery = RtmpDelivery(RtmpPushSession(conn), driver)
        driver.start()
        return loop, delivery, received

    def test_backlog_starts_with_keyframe(self):
        loop, delivery, received = self._wire()
        delivery.start()
        loop.run_until(0.5)
        video = [f for f, _ in received if isinstance(f, EncodedFrame)]
        assert video
        assert video[0].frame_type == "I"

    def test_no_frames_before_start(self):
        loop, delivery, received = self._wire()
        loop.run_until(1.0)
        assert received == []

    def test_live_frames_flow_after_start(self):
        loop, delivery, received = self._wire()
        delivery.start()
        loop.run_until(8.0)
        video = [f for f, _ in received if isinstance(f, EncodedFrame)]
        # ~3 s backlog + 8 s live at >20 fps.
        assert len(video) > 150


class TestHlsOrigin:
    def _origin(self, age=30.0):
        loop = EventLoop()
        driver = LiveSourceDriver(loop, make_broadcast(seed=3), age_at_join=age,
                                  horizon_s=20.0, generate_from=max(0.0, age - 16.0))
        origin = HlsOrigin(loop, driver)
        driver.start()
        origin.start()
        return loop, origin

    def test_history_publishes_window(self):
        loop, origin = self._origin()
        playlist = origin.window.playlist()
        assert 1 <= len(playlist.entries) <= 3
        assert origin.segments_published >= 2

    def test_live_segments_appear_over_time(self):
        loop, origin = self._origin()
        before = origin.window.newest_sequence
        loop.run_until(15.0)
        assert origin.window.newest_sequence > before

    def test_segment_durations_in_range(self):
        loop, origin = self._origin()
        loop.run_until(20.0)
        playlist = origin.window.playlist()
        for entry in playlist.entries:
            assert 2.0 <= entry.duration_s <= 7.0

    def test_http_playlist_and_segment_fetch(self):
        loop, origin = self._origin()
        resp = origin.handle(HttpRequest("GET", "/b/playlist.m3u8"), "c")
        assert resp.status == HttpStatus.OK
        playlist = resp.payload
        assert playlist.entries
        seg_resp = origin.handle(HttpRequest("GET", f"/{playlist.entries[-1].uri}"), "c")
        assert seg_resp.status == HttpStatus.OK
        assert seg_resp.payload.video_frames
        assert seg_resp.body_bytes > 1000

    def test_unknown_segment_404(self):
        loop, origin = self._origin()
        resp = origin.handle(HttpRequest("GET", "/seg99999.ts"), "c")
        assert resp.status == HttpStatus.NOT_FOUND

    def test_post_rejected(self):
        loop, origin = self._origin()
        resp = origin.handle(HttpRequest("POST", "/b/playlist.m3u8", json_body={}), "c")
        assert resp.status == HttpStatus.NOT_FOUND
