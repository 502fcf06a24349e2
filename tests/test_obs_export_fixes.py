"""Regression tests for the exposition-format and silent-data-loss fixes:
label-value escaping, the missing HELP line, and surfaced
tracer/histogram truncation."""

from repro import obs
from repro.obs.export import (
    _escape_label_value,
    render_prometheus,
    render_summary,
)
from repro.obs.metrics import Histogram
from repro.obs.profiler import SiteStats


# ------------------------------------------------------------- escaping


def test_escape_label_value():
    assert _escape_label_value('plain') == 'plain'
    assert _escape_label_value('a"b') == 'a\\"b'
    assert _escape_label_value('a\\b') == 'a\\\\b'
    assert _escape_label_value('a\nb') == 'a\\nb'
    # Backslash first, so escaped quotes do not get double-escaped.
    assert _escape_label_value('\\"') == '\\\\\\"'


def test_metric_label_values_escaped_in_exposition():
    with obs.session(metrics=True, tracing=False, profiling=False) as telemetry:
        telemetry.metrics.counter(
            "paths_total", "help", path='seg"0\\1.ts',
        ).inc()
        dump = render_prometheus(telemetry)
    assert 'paths_total{path="seg\\"0\\\\1.ts"} 1' in dump


def test_profiler_site_labels_escaped():
    with obs.session(metrics=False, tracing=False, profiling=True) as telemetry:
        stats = SiteStats()
        stats.count = 3
        telemetry.profiler.sites['mod:<lambda>"x\\y'] = stats
        dump = render_prometheus(telemetry)
    assert ('eventloop_callbacks_total'
            '{site="mod:<lambda>\\"x\\\\y"} 3') in dump


def test_queue_depth_high_water_has_help_line():
    with obs.session(metrics=False, tracing=False, profiling=True) as telemetry:
        telemetry.profiler.sites["mod:tick"] = SiteStats()
        telemetry.profiler.note_queue_depth(7)
        dump = render_prometheus(telemetry)
    assert "# HELP eventloop_queue_depth_high_water " in dump
    assert "# TYPE eventloop_queue_depth_high_water gauge" in dump
    assert "eventloop_queue_depth_high_water 7" in dump


# ------------------------------------------------------ silent data loss


def test_tracer_dropped_spans_surfaced():
    with obs.session(metrics=False, tracing=True, profiling=False) as telemetry:
        tracer = telemetry.tracer
        tracer._max_spans = 2
        for index in range(5):
            span = tracer.begin("busy", float(index))
            tracer.end(span, float(index) + 0.5)
        assert tracer.dropped == 3
        dump = render_prometheus(telemetry)
        summary = render_summary(telemetry)
    assert "tracer_dropped_spans_total 3" in dump
    assert "spans dropped past max_spans: 3" in summary


def test_histogram_value_cap_overflow_surfaced():
    with obs.session(metrics=True, tracing=False, profiling=False) as telemetry:
        hist = telemetry.metrics.histogram("lat_seconds", "help", kind="x")
        hist._value_cap = 4
        for index in range(6):
            hist.observe(float(index))
        assert not hist.exact
        assert hist.values_dropped == 6
        dump = render_prometheus(telemetry)
        summary = render_summary(telemetry)
    assert ('telemetry_histogram_values_dropped_total'
            '{metric="lat_seconds",kind="x"} 6') in dump
    assert "(6 dropped)" in summary


def test_exact_histogram_reports_no_drops():
    hist = Histogram()
    for index in range(10):
        hist.observe(float(index))
    assert hist.exact
    assert hist.values_dropped == 0
