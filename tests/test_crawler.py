"""Integration tests for the deep and targeted crawls."""

import copy
import pickle

import pytest

from oracles import area_deg2
from repro.crawler.analysis import analyze_tracked
from repro.crawler.client import CrawlHarness
from repro.crawler.deep import DeepCrawler
from repro.crawler.targeted import TargetedCrawl, TrackedBroadcast
from repro.faults.retry import CRAWLER_RETRY
from repro.service.api import RateLimiter


@pytest.fixture(scope="module")
def deep_result():
    harness = CrawlHarness(seed=42, mean_concurrent=700, identities=1)
    crawler = DeepCrawler(harness.clients[0], max_depth=4)
    crawler.start()
    harness.run_until(1200.0)
    return harness, crawler.result


class TestDeepCrawl:
    def test_discovers_substantial_fraction(self, deep_result):
        harness, result = deep_result
        live = harness.world.live_count()
        visible = sum(
            1
            for b in harness.world.live_broadcasts()
            if not b.is_private and b.description_has_location
        )
        assert len(result.discovered) > 0.5 * visible

    def test_queries_many_areas(self, deep_result):
        _, result = deep_result
        assert len(result.areas) > 40

    def test_discovery_curve_monotone(self, deep_result):
        _, result = deep_result
        curve = result.discovery_curve()
        counts = [c for _, c in curve]
        assert counts == sorted(counts)
        assert curve[-1][1] == len(result.discovered)

    def test_half_the_areas_hold_most_broadcasts(self, deep_result):
        # Fig. 1(b): ~half of the areas contain at least 80% of broadcasts.
        _, result = deep_result
        curve = result.relative_curve()
        at_half = max(pct for areas_pct, pct in curve if areas_pct <= 50.0)
        assert at_half >= 70.0

    def test_crawl_takes_minutes_due_to_pacing(self, deep_result):
        # At paper scale (2500+ concurrent) a deep crawl exceeds 10 min;
        # this fixture runs a ~4x smaller world, so expect a scaled floor.
        _, result = deep_result
        assert result.duration_s > 30.0
        assert result.duration_s >= 0.8 * len(result.areas) * 0.85

    def test_top_areas_are_leaves(self, deep_result):
        _, result = deep_result
        top = result.top_areas(16)
        assert len(top) == 16
        world_area = 360.0 * 180.0
        assert all(area_deg2(rect) < world_area for rect in top)

    def test_cannot_start_twice_while_running(self):
        harness = CrawlHarness(seed=1, mean_concurrent=100)
        crawler = DeepCrawler(harness.clients[0], max_depth=1)
        crawler.start()
        with pytest.raises(RuntimeError):
            crawler.start()


class TestBoundedRetry:
    """Regression for the unbounded-429 bug: the old client rescheduled
    itself after a constant 2 s forever, so a permanently failing service
    meant an infinite retry loop.  The shared RetryPolicy bounds it."""

    @staticmethod
    def _client_against(handler):
        from repro.netsim.duplex import DuplexStream
        from repro.netsim.events import EventLoop
        from repro.netsim.topology import Network
        from repro.protocols.http import HttpClient, HttpServer

        from repro.crawler.client import CrawlClient

        loop = EventLoop()
        net = Network(loop)
        emulator, api_host = net.host("emulator"), net.host("api")
        net.duplex(emulator, api_host, rate_bps=100e6, delay_s=0.040)
        stream = DuplexStream(loop, net, "emulator", "api", name="crawler-0")
        HttpServer(loop, stream, handler, client_label="crawler-0")
        return loop, CrawlClient(loop, HttpClient(loop, stream), "crawler-0")

    def test_permanent_429_terminates_with_bounded_attempts(self):
        from repro.protocols.http import HttpResponse, HttpStatus

        loop, client = self._client_against(
            lambda request, identity: HttpResponse(HttpStatus.TOO_MANY_REQUESTS)
        )
        outcomes = []
        client.call("mapGeoBroadcastFeed", {},
                    lambda response, now: outcomes.append(response.status))
        loop.run()  # must terminate — the old loop never did
        assert client.gave_up == 1
        assert client.requests_sent == 1 + CRAWLER_RETRY.max_attempts
        assert client.retries == CRAWLER_RETRY.max_attempts
        assert outcomes == [HttpStatus.TOO_MANY_REQUESTS]
        assert client.throttled == client.requests_sent  # every try 429'd

    def test_injected_503_also_walks_the_policy(self):
        from repro.protocols.http import HttpResponse, HttpStatus

        loop, client = self._client_against(
            lambda request, identity: HttpResponse(HttpStatus.SERVICE_UNAVAILABLE)
        )
        outcomes = []
        client.call("getBroadcasts", {"broadcast_ids": []},
                    lambda response, now: outcomes.append(response.status))
        loop.run()
        assert client.gave_up == 1
        assert client.throttled == 0  # 503 is not throttling
        assert outcomes == [HttpStatus.SERVICE_UNAVAILABLE]

    def test_transient_429_recovers_without_giving_up(self):
        from repro.protocols.http import HttpResponse, HttpStatus

        failures = {"left": 2}

        def handler(request, identity):
            if failures["left"] > 0:
                failures["left"] -= 1
                return HttpResponse(HttpStatus.TOO_MANY_REQUESTS)
            return HttpResponse(HttpStatus.OK, json_body={"broadcasts": []})

        loop, client = self._client_against(handler)
        outcomes = []
        client.call("mapGeoBroadcastFeed", {},
                    lambda response, now: outcomes.append(response.status))
        loop.run()
        assert outcomes == [HttpStatus.OK]
        assert client.gave_up == 0
        assert client.throttled == 2


class TestRateLimiting:
    def test_throttling_engages_and_crawl_recovers(self):
        harness = CrawlHarness(
            seed=7, mean_concurrent=300,
            rate_limiter=RateLimiter(rate_per_s=0.5, burst=2),
        )
        client = harness.clients[0]
        # The 0.85 s pacing asks for more than the bucket's 0.5/s.
        crawler = DeepCrawler(client, max_depth=2)
        crawler.start()
        harness.run_until(900.0)
        assert client.throttled > 0
        assert crawler.result.areas  # still made progress via backoff


class TestTargetedCrawl:
    @pytest.fixture(scope="class")
    def crawl(self):
        harness = CrawlHarness(seed=13, mean_concurrent=700, identities=4)
        deep = DeepCrawler(harness.clients[0], max_depth=3)
        deep.start()
        harness.run_until(600.0)
        areas = deep.result.top_areas(16)
        targeted = TargetedCrawl(harness.clients, areas, duration_s=1800.0)
        targeted.start()
        harness.run_until(600.0 + 1800.0 + 5.0)
        return harness, targeted

    def test_tracks_broadcasts(self, crawl):
        _, targeted = crawl
        assert len(targeted.tracked) > 30

    def test_rounds_fast_with_four_identities(self, crawl):
        _, targeted = crawl
        assert all(r > 3 for r in targeted.rounds_completed)
        assert targeted.mean_round_s < 60.0

    def test_viewer_samples_collected(self, crawl):
        _, targeted = crawl
        sampled = [t for t in targeted.tracked.values() if t.viewer_samples]
        assert len(sampled) > 0.5 * len(targeted.tracked)

    def test_equal_viewer_samples_are_one_object(self, crawl):
        _, targeted = crawl
        samples = [v for t in targeted.tracked.values() for v in t.viewer_samples]
        shared = {}
        for sample in samples:
            assert shared.setdefault(sample, sample) is sample
        assert len(shared) < len(samples)

    def test_shared_samples_pickle_as_one_float_each(self, crawl):
        """Pickle writes floats by value, so sharing them moves no byte
        of the crawl's output."""
        _, targeted = crawl
        rebuilt = copy.deepcopy(targeted.tracked)
        for tracked in rebuilt.values():
            tracked.viewer_samples = [float(int(v)) for v in tracked.viewer_samples]
        fresh = [v for t in rebuilt.values() for v in t.viewer_samples]
        assert len({id(v) for v in fresh}) == len(fresh)
        assert pickle.dumps(sorted(targeted.tracked.items()), protocol=4) == (
            pickle.dumps(sorted(rebuilt.items()), protocol=4))

    def test_completed_broadcasts_have_durations(self, crawl):
        _, targeted = crawl
        done = targeted.completed_broadcasts()
        assert done
        for t in done:
            assert t.duration_estimate() is not None

    def test_validation(self):
        harness = CrawlHarness(seed=1, mean_concurrent=100)
        with pytest.raises(ValueError):
            TargetedCrawl([], [], duration_s=10.0)
        with pytest.raises(ValueError):
            TargetedCrawl(harness.clients, [], duration_s=10.0)


class TestAnalysis:
    def _tracked(self, n=200):
        out = []
        for i in range(n):
            zero = i % 10 == 0
            out.append(
                TrackedBroadcast(
                    broadcast_id=f"b{i:04}",
                    first_seen=0.0,
                    last_seen=float(120 + (i % 50) * 10),
                    start_time=0.0,
                    viewer_samples=[0.0] if zero else [float(1 + i % 30)],
                    available_for_replay=not zero,
                )
            )
        return out

    def test_analysis_aggregates(self):
        patterns = analyze_tracked(self._tracked())
        assert patterns.n_broadcasts == 200
        assert 0.05 < patterns.zero_viewer_fraction < 0.15
        assert patterns.duration_cdf.quantile(0.5) > 0
        assert patterns.zero_viewer_no_replay_fraction == 1.0
        rows = patterns.summary_rows()
        assert len(rows) == 10

    def test_analysis_rejects_empty(self):
        with pytest.raises(ValueError):
            analyze_tracked([])

    def test_local_hour_grouping(self):
        tracked = self._tracked(48)
        offsets = {t.broadcast_id: 3 for t in tracked}
        patterns = analyze_tracked(tracked, utc_offsets=offsets)
        assert set(patterns.viewers_by_local_hour) == {3}
