"""Tests for the figure drivers at a reduced scale.

The benchmarks run the drivers at figure scale; these tests verify the
drivers' structure and invariants quickly.
"""

import pytest

from repro.experiments import (
    fig1_crawl,
    fig2_usage,
    fig3_stalls,
    fig4_latency,
    fig5_delivery,
    fig6_quality,
    fig7_power,
    sec5_protocol,
    sec5_ttests,
    sec51_chat,
    sec52_codecs,
    table1_api,
)
from repro.experiments.common import Workbench
from repro.media.encoder import EncoderSettings


@pytest.fixture(scope="module")
def tiny_workbench():
    return Workbench(
        seed=99,
        unlimited_sessions=26,
        sweep_sessions_per_limit=3,
        sweep_limits_mbps=(0.5, 100.0),
        crawl_world_concurrent=500,
        deep_crawls=2,
        targeted_duration_s=900.0,
    )


def test_table1_rows_render():
    result = table1_api.run(seed=1)
    out = result.render()
    assert "mapGeoBroadcastFeed" in out
    assert len(result.rows) == 3


def test_fig1_structure(tiny_workbench):
    result = fig1_crawl.run(tiny_workbench)
    assert len(result.totals) == 2
    assert all(t > 50 for t in result.totals)
    assert "crawl 0" in result.render()


def test_fig2_patterns(tiny_workbench):
    result = fig2_usage.run(tiny_workbench)
    assert result.patterns.n_broadcasts > 50
    assert 0.0 < result.patterns.duration_cdf.quantile(0.5) < 3600
    out = result.render()
    assert "Fig 2(b)" in out


def test_fig3_ranges(tiny_workbench):
    result = fig3_stalls.run(tiny_workbench)
    assert all(0.0 <= r <= 1.0 for r in result.unlimited_ratios)
    assert set(result.by_limit) == {0.5, 100.0}
    assert "stall" in result.render()


def test_fig4_medians(tiny_workbench):
    result = fig4_latency.run(tiny_workbench)
    assert result.median_join(0.5) > result.median_join(100.0) * 0.8
    assert result.median_latency(100.0) > 0
    assert "join time" in result.render()


def test_fig5_separation(tiny_workbench):
    result = fig5_delivery.run(tiny_workbench)
    assert result.hls_mean() > 1.0
    assert result.rtmp_p75() < 1.0
    assert "RTMP p75" in result.render()


def test_fig6_points(tiny_workbench):
    result = fig6_quality.run(tiny_workbench)
    assert result.qp_points
    assert result.typical_band_share() > 0.3
    assert "Fig 6(b)" in result.render()


def test_fig7_standalone():
    result = fig7_power.run(seed=3, duration_s=5.0)
    assert len(result.measured) == 7
    assert result.chat_overhead_mw() > 500
    assert "wifi (paper)" in result.render()


def test_sec5_ttests(tiny_workbench):
    result = sec5_ttests.run(tiny_workbench)
    assert "avg_fps" in result.results
    # fps difference shows even in small samples; others must not all be
    # significant (pooled-device justification).
    insignificant = [m for m in result.results if m not in
                     result.significant_metrics()]
    assert len(insignificant) >= 3
    assert "significant?" in result.render()


def test_sec5_protocol(tiny_workbench):
    result = sec5_protocol.run(tiny_workbench)
    assert result.rtmp_server_count == 87
    assert result.hls_edge_count == 2
    assert result.boundary_estimate > 0
    assert "Finland" in result.render()


def test_sec51_chat_small():
    result = sec51_chat.run(seed=5, viewers=500.0)
    assert result.chat_on_bps > result.chat_off_bps
    assert result.chat_on_cached_bps < result.chat_on_bps
    assert "amplification" in result.render()


def test_sec52_codecs_small():
    result = sec52_codecs.run(seed=5, n_streams=40, duration_s=30.0)
    assert abs(sum(result.gop_shares.values()) - 1.0) < 1e-9
    assert result.gop_shares["IBP"] > 0.5
    assert result.segment_durations
    assert "GOP pattern" in result.render()


def test_sec52_codecs_encodes_i_only_streams_hot(monkeypatch):
    """The census's intra-only streams (index 17 at seed 5) get the
    500-1,400 kbps targets of old hardware, the others 120-900 kbps."""
    built = []

    def recording_settings(**kwargs):
        built.append(EncoderSettings(**kwargs))
        return built[-1]

    monkeypatch.setattr(sec52_codecs, "EncoderSettings", recording_settings)
    sec52_codecs.run(seed=5, n_streams=18, duration_s=2.0)
    hot = [s.target_bps for s in built if s.gop.kind == "I"]
    rest = [s.target_bps for s in built if s.gop.kind != "I"]
    assert len(hot) == 1 and len(rest) == 17
    assert all(500_000.0 <= t <= 1_400_000.0 for t in hot)
    assert all(120_000.0 <= t <= 900_000.0 for t in rest)


def test_workbench_caches(tiny_workbench):
    assert tiny_workbench.unlimited() is tiny_workbench.unlimited()
    assert tiny_workbench.sweep() is tiny_workbench.sweep()
    assert tiny_workbench.targeted_crawl() is tiny_workbench.targeted_crawl()
