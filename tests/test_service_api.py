"""Tests for the API server, rate limiting and protocol selection."""

import random

import pytest

from repro.protocols.http import HttpRequest, HttpStatus
from repro.service.api import API_PATH, ApiServer, RateLimiter
from repro.service.chat import ChatFeed
from repro.service.ingest import CDN_EDGES, IngestPool, nearest_cdn_edge
from repro.service.geo import GeoPoint
from repro.service.selection import DeliveryProtocol, select_protocol
from repro.service.world import ServiceWorld, WorldParameters


@pytest.fixture()
def api():
    world = ServiceWorld(WorldParameters(mean_concurrent=300), seed=21)
    ingest = IngestPool(random.Random(1))
    clock_box = {"now": 0.0}
    server = ApiServer(
        world, ingest, clock=lambda: clock_box["now"], rng=random.Random(2),
        rate_limiter=RateLimiter(rate_per_s=1000.0, burst=1000),
    )
    return server, clock_box, world


def post(command, **payload):
    body = {"request": command}
    body.update(payload)
    return HttpRequest("POST", API_PATH, json_body=body)


class TestApiDispatch:
    def test_unknown_endpoint_404(self, api):
        server, _, _ = api
        resp = server.handle(HttpRequest("GET", "/nope"), "u1")
        assert resp.status == HttpStatus.NOT_FOUND

    def test_unknown_command_404(self, api):
        server, _, _ = api
        resp = server.handle(post("doSomething"), "u1")
        assert resp.status == HttpStatus.NOT_FOUND

    def test_map_geo_broadcast_feed(self, api):
        server, _, world = api
        resp = server.handle(
            post("mapGeoBroadcastFeed", p1_lat=-90.0, p1_lng=-180.0,
                 p2_lat=90.0, p2_lng=180.0, include_replay=False),
            "u1",
        )
        assert resp.status == HttpStatus.OK
        broadcasts = resp.json_body["broadcasts"]
        assert 0 < len(broadcasts) <= world.params.map_response_cap
        assert all(len(b["id"]) == 13 for b in broadcasts)

    def test_map_ignores_include_replay(self, api):
        server, _, world = api
        # Short of the next retire scan, so ended broadcasts still sit in
        # the live set.
        world.advance_to(4.0)
        world_rect = dict(p1_lat=-90.0, p1_lng=-180.0, p2_lat=90.0,
                          p2_lng=180.0)
        with_replay, without_replay = (
            server.handle(post("mapGeoBroadcastFeed", include_replay=flag,
                               **world_rect), "u1").json_body
            for flag in (True, False)
        )
        assert with_replay == without_replay
        listed = [world.get_broadcast(b["id"])
                  for b in with_replay["broadcasts"]]
        assert listed and all(b.is_live_at(world.now) for b in listed)

    def test_map_bad_coordinates(self, api):
        server, _, _ = api
        resp = server.handle(post("mapGeoBroadcastFeed", p1_lat="x"), "u1")
        assert resp.status == HttpStatus.NOT_FOUND

    def test_get_broadcasts_descriptions(self, api):
        server, _, world = api
        ids = [b.broadcast_id for b in world.live_broadcasts()[:5]]
        resp = server.handle(post("getBroadcasts", broadcast_ids=ids), "u1")
        assert resp.status == HttpStatus.OK
        descriptions = resp.json_body["broadcasts"]
        assert {d["id"] for d in descriptions} == set(ids)
        assert all("n_watching" in d for d in descriptions)

    def test_get_broadcasts_ignores_unknown_ids(self, api):
        server, _, _ = api
        resp = server.handle(post("getBroadcasts", broadcast_ids=["nope"]), "u1")
        assert resp.json_body["broadcasts"] == []

    def test_get_broadcasts_requires_list(self, api):
        server, _, _ = api
        resp = server.handle(post("getBroadcasts", broadcast_ids="abc"), "u1")
        assert resp.status == HttpStatus.NOT_FOUND

    def test_playback_meta_stored(self, api):
        server, _, _ = api
        stats = {"n_stalls": 2, "stall_time": 4.5, "delay_ms": 2300}
        resp = server.handle(post("playbackMeta", stats=stats), "phone-1")
        assert resp.status == HttpStatus.OK
        assert resp.json_body == {}
        assert server.playback_metas[0].stats == stats
        assert server.playback_metas[0].identity == "phone-1"

    def test_access_video_rtmp_for_unpopular(self, api):
        server, _, world = api
        quiet = next(b for b in world.live_broadcasts()
                     if b.viewers_at(world.now) < 50)
        resp = server.handle(post("accessVideo", broadcast_id=quiet.broadcast_id), "u1")
        assert resp.json_body["protocol"] == "rtmp"
        assert resp.json_body["port"] == 80
        assert resp.json_body["host"].startswith("vidman-")

    def test_access_video_unknown_broadcast(self, api):
        server, _, _ = api
        resp = server.handle(post("accessVideo", broadcast_id="missing"), "u1")
        assert resp.status == HttpStatus.NOT_FOUND


class TestRateLimiter:
    def test_burst_then_throttle(self):
        limiter = RateLimiter(rate_per_s=1.0, burst=3)
        now = 0.0
        results = [limiter.allow("u", now) for _ in range(5)]
        assert results == [True, True, True, False, False]
        assert limiter.throttled_count == 2

    def test_tokens_refill_over_time(self):
        limiter = RateLimiter(rate_per_s=2.0, burst=1)
        assert limiter.allow("u", 0.0)
        assert not limiter.allow("u", 0.1)
        assert limiter.allow("u", 0.7)  # refilled

    def test_identities_independent(self):
        limiter = RateLimiter(rate_per_s=1.0, burst=1)
        assert limiter.allow("a", 0.0)
        assert limiter.allow("b", 0.0)
        assert not limiter.allow("a", 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(rate_per_s=0.0)
        with pytest.raises(ValueError):
            RateLimiter(rate_per_s=1.0, burst=0)

    def test_api_returns_429_when_throttled(self):
        world = ServiceWorld(WorldParameters(mean_concurrent=50), seed=3)
        server = ApiServer(
            world, IngestPool(random.Random(1)), clock=lambda: 0.0,
            rng=random.Random(2), rate_limiter=RateLimiter(rate_per_s=1.0, burst=1),
        )
        first = server.handle(post("getBroadcasts", broadcast_ids=[]), "u")
        second = server.handle(post("getBroadcasts", broadcast_ids=[]), "u")
        assert first.status == HttpStatus.OK
        assert second.status == HttpStatus.TOO_MANY_REQUESTS


class TestInfrastructure:
    def test_pool_has_87_servers(self):
        pool = IngestPool(random.Random(5))
        assert len(pool.servers) == 87
        assert len({s.ip for s in pool.servers}) > 80  # essentially unique

    def test_every_continent_except_africa(self):
        pool = IngestPool(random.Random(6))
        regions = {s.region for s in pool.servers}
        assert {"us-east-1", "eu-central-1", "ap-northeast-1", "sa-east-1",
                "ap-southeast-2"} <= regions

    def test_nearest_to_broadcaster(self):
        pool = IngestPool(random.Random(7))
        tokyo = GeoPoint(35.7, 139.7)
        chosen = pool.nearest_to(tokyo)
        assert chosen.region in ("ap-northeast-1",)

    def test_two_cdn_edges(self):
        assert len(CDN_EDGES) == 2

    def test_cdn_edge_by_viewer_location(self):
        helsinki = GeoPoint(60.2, 24.9)
        sf = GeoPoint(37.8, -122.4)
        assert nearest_cdn_edge(helsinki).name == "fastly-eu"
        assert nearest_cdn_edge(sf).name == "fastly-sf"


class TestSelection:
    def _broadcast_with_viewers(self, viewers):
        from repro.service.broadcast import sample_broadcast
        from repro.service.geo import POPULATION_CENTERS

        b = sample_broadcast(random.Random(9), 0.0, GeoPoint(0, 0),
                             POPULATION_CENTERS[0])
        b.mean_viewers = viewers
        b.duration_s = 1000.0
        b.start_time = 0.0
        return b

    def test_popular_gets_hls(self):
        b = self._broadcast_with_viewers(5000.0)
        assert select_protocol(b, 150.0) == DeliveryProtocol.HLS

    def test_quiet_gets_rtmp(self):
        b = self._broadcast_with_viewers(3.0)
        assert select_protocol(b, 150.0) == DeliveryProtocol.RTMP

    def test_threshold_validation(self):
        b = self._broadcast_with_viewers(10.0)
        with pytest.raises(ValueError):
            select_protocol(b, 150.0, threshold=-1.0)


class TestChatFeed:
    def test_message_rate_scales_with_viewers_then_caps(self):
        rng = random.Random(10)
        small = ChatFeed(random.Random(1), viewers=10.0)
        big = ChatFeed(random.Random(2), viewers=100.0)
        huge = ChatFeed(random.Random(3), viewers=100_000.0)
        assert small.message_rate_per_s < big.message_rate_per_s
        assert huge.message_rate_per_s == pytest.approx(6.0)

    def test_messages_poisson_stream(self):
        feed = ChatFeed(random.Random(4), viewers=200.0)
        msgs = list(feed.messages(60.0))
        expected = feed.message_rate_per_s * 60.0
        assert 0.5 * expected < len(msgs) < 1.6 * expected
        times = [m.timestamp for m in msgs]
        assert times == sorted(times)
        assert all(0 <= t < 60.0 for t in times)

    def test_zero_viewers_no_messages(self):
        feed = ChatFeed(random.Random(5), viewers=0.0)
        assert list(feed.messages(60.0)) == []

    def test_avatars_repeat_across_messages(self):
        feed = ChatFeed(random.Random(6), viewers=500.0, chatter_pool_size=5)
        msgs = list(feed.messages(300.0))
        usernames = {m.username for m in msgs}
        assert len(usernames) <= 5
        assert len(msgs) > len(usernames)  # repeats -> repeated downloads

    def test_message_frame_bytes_positive(self):
        feed = ChatFeed(random.Random(7), viewers=100.0)
        msg = next(iter(feed.messages(60.0)))
        assert msg.frame_bytes() > 20

    def test_expected_avatar_traffic_substantial_for_active_chat(self):
        feed = ChatFeed(random.Random(8), viewers=1000.0)
        avatar_bytes = sum(m.avatar_bytes for m in feed.messages(60.0) if m.has_avatar)
        assert avatar_bytes * 8.0 / 60.0 > 500_000  # >0.5 Mbps

    def test_validation(self):
        with pytest.raises(ValueError):
            ChatFeed(random.Random(9), viewers=-1.0)
        feed = ChatFeed(random.Random(10), viewers=10.0)
        with pytest.raises(ValueError):
            list(feed.messages(0.0))
