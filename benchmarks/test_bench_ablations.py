"""Ablations of the design choices DESIGN.md calls out.

* RTMP buffer sizing — the latency/stall trade-off behind the paper's
  "buffer sizing strategy may cause the stall difference" hypothesis;
* the HLS viewer threshold — delivery latency vs stall rate across the
  protocol-selection boundary;
* avatar caching — the paper's proposed chat-energy mitigation;
* crawl zoom depth — discovery completeness vs crawl duration.
"""

import random

from repro.analysis.charts import render_table
from repro.core.config import StudyConfig
from repro.core.study import AutomatedViewingStudy
from repro.crawler.client import CrawlHarness
from repro.crawler.deep import DeepCrawler
from repro.experiments import sec51_chat
from repro.netsim.connection import Connection
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.player.rtmp_player import RtmpPlayer
from repro.protocols.rtmp import RtmpPushSession
from repro.service.broadcast import sample_broadcast
from repro.service.delivery import LiveSourceDriver, RtmpDelivery, UplinkModel
from repro.service.geo import POPULATION_CENTERS, GeoPoint
from repro.util.units import MBPS


def _rtmp_run(start_threshold, rebuffer_threshold, seed):
    """One 60s RTMP reception with a parametrized buffer; returns
    (stall_count, mean playback latency)."""
    loop = EventLoop()
    net = Network(loop)
    server, phone = net.host("ingest"), net.host("phone")
    net.duplex(server, phone, rate_bps=50 * MBPS, delay_s=0.03)
    fwd, rev = net.duplex_paths("ingest", "phone")
    player = RtmpPlayer(
        loop, broadcast_start=-300.0,
        start_threshold_s=start_threshold,
        rebuffer_threshold_s=rebuffer_threshold,
    )
    conn = Connection(loop, fwd, rev, on_message=player.on_message)
    broadcast = sample_broadcast(random.Random(seed), 0.0, GeoPoint(40, -74),
                                 POPULATION_CENTERS[0])
    broadcast.duration_s = 3600.0
    broadcast.mean_viewers = 10.0
    driver = LiveSourceDriver(
        loop, broadcast, age_at_join=300.0, horizon_s=65.0,
        generate_from=297.0,
        uplink=UplinkModel(outage_rate_per_s=0.02),  # glitchy uplink
    )
    delivery = RtmpDelivery(RtmpPushSession(conn), driver)
    driver.start()
    delivery.start()
    loop.run_until(60.0)
    report = player.finalize(60.0)
    return report.stall_count, report.mean_playback_latency_s or 0.0


def test_bench_ablation_buffer(benchmark, figure_sink):
    """Bigger buffers: fewer stalls, more latency."""

    def run():
        rows = []
        for start, rebuffer in ((0.8, 0.5), (1.8, 1.0), (4.5, 3.0), (9.0, 6.0)):
            stalls, latencies = [], []
            for seed in range(12):
                s, l = _rtmp_run(start, rebuffer, seed)
                stalls.append(s)
                latencies.append(l)
            rows.append((start, rebuffer,
                         sum(stalls) / len(stalls),
                         sum(latencies) / len(latencies)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = render_table(
        ["start buffer (s)", "rebuffer (s)", "mean stalls", "mean latency (s)"],
        [[f"{a:g}", f"{b:g}", f"{c:.2f}", f"{d:.2f}"] for a, b, c, d in rows],
    )
    figure_sink("ablation_buffer", rendered)
    # Monotone trade-off: the largest buffer stalls least but is slowest.
    assert rows[-1][2] <= rows[0][2]
    assert rows[-1][3] > rows[0][3]
    assert rows[0][2] > 0  # the glitchy uplink does cause stalls


def test_bench_ablation_hls_threshold(benchmark, figure_sink):
    """Lowering the HLS boundary trades delivery latency for stability."""

    def run():
        rows = []
        for threshold in (5.0, 100.0, 100000.0):
            config = StudyConfig(seed=31, hls_viewer_threshold=threshold)
            study = AutomatedViewingStudy(config)
            ds = study.run_batch(16)
            hls_share = len(ds.by_protocol("hls")) / len(ds.sessions)
            lat = [s.delivery_latency_s for s in ds.sessions
                   if s.delivery_latency_s is not None]
            stallers = sum(1 for s in ds.sessions if s.stall_count > 0)
            rows.append((threshold, hls_share,
                         sum(lat) / len(lat), stallers / len(ds.sessions)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = render_table(
        ["HLS threshold (viewers)", "HLS share", "mean delivery lat (s)",
         "stalling sessions"],
        [[f"{t:g}", f"{s:.2f}", f"{l:.2f}", f"{x:.2f}"] for t, s, l, x in rows],
    )
    figure_sink("ablation_hls_threshold", rendered)
    # threshold 5 -> mostly HLS (only near-empty broadcasts stay RTMP);
    # huge threshold -> all RTMP.
    assert rows[0][1] > 0.6
    assert rows[2][1] == 0.0
    # Delivery latency rises as HLS share rises.
    assert rows[0][2] > rows[2][2]


def test_bench_ablation_avatar_cache(benchmark, figure_sink):
    result = benchmark.pedantic(sec51_chat.run, kwargs={"seed": 77},
                                rounds=1, iterations=1)
    figure_sink("ablation_avatar_cache", result.render())
    # The paper's proposed mitigation works: caching removes most of the
    # chat-on traffic overhead.
    overhead_uncached = result.chat_on_bps - result.chat_off_bps
    overhead_cached = result.chat_on_cached_bps - result.chat_off_bps
    assert overhead_cached < 0.45 * overhead_uncached


def test_bench_ablation_crawl_depth(benchmark, figure_sink):
    """Deeper zoom finds more broadcasts but takes longer."""

    def run():
        rows = []
        for depth in (1, 3, 5):
            harness = CrawlHarness(seed=55, mean_concurrent=900)
            crawler = DeepCrawler(harness.clients[0], max_depth=depth)
            crawler.start()
            harness.run_until(3600.0)
            rows.append((depth, len(crawler.result.discovered),
                         crawler.result.duration_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = render_table(
        ["max zoom depth", "broadcasts found", "crawl duration (s)"],
        [[d, n, f"{t:.0f}"] for d, n, t in rows],
    )
    figure_sink("ablation_crawl_depth", rendered)
    assert rows[2][1] > rows[0][1]          # deeper finds more
    assert rows[2][2] > rows[0][2]          # and takes longer
