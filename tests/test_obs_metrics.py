"""Unit tests for the metrics registry and its exporters."""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.export import render_prometheus, render_summary
from repro.obs.metrics import Histogram, MetricsRegistry


def test_counter_basics():
    registry = MetricsRegistry()
    counter = registry.counter("events_total", "help text")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    # Same name + labels returns the same child.
    assert registry.counter("events_total") is counter


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("x").inc(-1)


def test_labels_create_distinct_children():
    registry = MetricsRegistry()
    a = registry.counter("http_total", status="200")
    b = registry.counter("http_total", status="429")
    a.inc()
    assert a is not b
    assert b.value == 0
    assert registry.get("http_total", status="200") is a
    assert registry.get("http_total", status="404") is None


def test_kind_conflict_rejected():
    registry = MetricsRegistry()
    registry.counter("x_total")
    with pytest.raises(ValueError):
        registry.gauge("x_total")


def test_gauge_high_water():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(3)
    gauge.set(10)
    gauge.set(2)
    assert gauge.value == 2
    assert gauge.high_water == 10


def test_histogram_exact_quantiles_on_known_inputs():
    histogram = Histogram(buckets=(1, 10, 100, 1000))
    for value in range(1, 101):  # 1..100, inserted in order
        histogram.observe(float(value))
    assert histogram.exact
    assert histogram.quantile(0.5) == 50.0
    assert histogram.quantile(0.95) == 95.0
    assert histogram.quantile(0.99) == 99.0
    assert histogram.quantile(1.0) == 100.0
    assert histogram.quantile(0.0) == 1.0
    assert histogram.count == 100
    assert histogram.sum == sum(range(1, 101))
    assert histogram.min == 1.0 and histogram.max == 100.0


def test_histogram_exact_regardless_of_insertion_order():
    histogram = Histogram()
    for value in (9.0, 1.0, 5.0, 3.0, 7.0):
        histogram.observe(value)
    assert histogram.quantile(0.5) == 5.0
    assert histogram.quantile(0.2) == 1.0


def test_histogram_falls_back_to_buckets_past_cap():
    histogram = Histogram(buckets=(10, 20, 30), value_cap=5)
    for value in (1.0, 12.0, 14.0, 25.0, 28.0, 29.0):
        histogram.observe(value)
    assert not histogram.exact
    estimate = histogram.quantile(0.5)
    assert 10.0 <= estimate <= 30.0
    assert histogram.count == 6


def test_histogram_empty_quantile_is_none():
    assert Histogram().quantile(0.5) is None


def test_prometheus_render():
    with obs.session() as telemetry:
        telemetry.metrics.counter("http_429_total", "throttles", kind="api").inc(3)
        telemetry.metrics.gauge("queue_depth").set(7)
        histogram = telemetry.metrics.histogram(
            "join_seconds", "join time", buckets=(1.0, 5.0), protocol="rtmp"
        )
        histogram.observe(0.5)
        histogram.observe(2.0)
        text = render_prometheus(telemetry)
    assert '# TYPE http_429_total counter' in text
    assert 'http_429_total{kind="api"} 3' in text
    assert "queue_depth 7" in text
    assert 'join_seconds_bucket{protocol="rtmp",le="1"} 1' in text
    assert 'join_seconds_bucket{protocol="rtmp",le="5"} 2' in text
    assert 'join_seconds_bucket{protocol="rtmp",le="+Inf"} 2' in text
    assert 'join_seconds_sum{protocol="rtmp"} 2.5' in text
    assert 'join_seconds_count{protocol="rtmp"} 2' in text


def test_summary_render_contains_quantiles():
    with obs.session() as telemetry:
        histogram = telemetry.metrics.histogram("latency_seconds")
        for value in range(1, 21):
            histogram.observe(float(value))
        telemetry.metrics.counter("requests_total").inc(20)
        text = render_summary(telemetry)
    assert "latency_seconds" in text
    assert "p95" in text
    assert "requests_total" in text


class TestSnapshotMerge:
    def test_counters_add(self):
        a = MetricsRegistry()
        a.counter("events_total", status="ok").inc(3)
        b = MetricsRegistry()
        b.counter("events_total", status="ok").inc(4)
        b.counter("events_total", status="err").inc(1)
        a.merge_from(b.snapshot())
        assert a.get("events_total", status="ok").value == 7.0
        assert a.get("events_total", status="err").value == 1.0

    def test_gauges_take_max(self):
        a = MetricsRegistry()
        a.gauge("progress").set(9)
        a.gauge("progress").set(2)  # value 2, high_water 9
        b = MetricsRegistry()
        b.gauge("progress").set(5)
        a.merge_from(b.snapshot())
        gauge = a.get("progress")
        assert gauge.value == 5.0
        assert gauge.high_water == 9.0

    def test_histograms_merge_exactly(self):
        a = MetricsRegistry()
        for value in (0.1, 0.4):
            a.histogram("join_seconds").observe(value)
        b = MetricsRegistry()
        for value in (0.2, 0.3, 2.0):
            b.histogram("join_seconds").observe(value)
        a.merge_from(b.snapshot())
        merged = a.get("join_seconds")
        assert merged.count == 5
        assert merged.sum == pytest.approx(3.0)
        assert merged.min == 0.1 and merged.max == 2.0
        assert merged.exact
        assert merged.quantile(0.5) == 0.3  # needs the merged raw values

    def test_histogram_merge_respects_value_cap(self):
        a = MetricsRegistry()
        big = a.histogram("x_seconds", buckets=(1.0, 10.0))
        big._value_cap = 3
        big.observe(0.5)
        big.observe(0.7)
        b = MetricsRegistry()
        other = b.histogram("x_seconds", buckets=(1.0, 10.0))
        for value in (0.1, 0.2):
            other.observe(value)
        a.merge_from(b.snapshot())
        merged = a.get("x_seconds")
        assert merged.count == 4
        assert not merged.exact  # 2 + 2 > cap of 3: buckets only, like observe()
        assert merged.quantile(0.5) is not None

    def test_kind_mismatch_rejected(self):
        a = MetricsRegistry()
        a.counter("x_total").inc()
        b = MetricsRegistry()
        b.gauge("x_total").set(1)
        with pytest.raises(ValueError):
            a.merge_from(b.snapshot())

    def test_bucket_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("x_seconds", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("x_seconds", buckets=(1.0, 5.0)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge_from(b.snapshot())

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c_total", status="ok").inc()
        registry.histogram("h_seconds").observe(1.0)
        snap = registry.snapshot()

        def only_builtins(node):
            if isinstance(node, dict):
                return all(isinstance(k, str) and only_builtins(v)
                           for k, v in node.items())
            if isinstance(node, list):
                return all(only_builtins(item) for item in node)
            return node is None or isinstance(node, (str, int, float))

        assert only_builtins(snap)

    def test_merge_into_empty_equals_original(self):
        source = MetricsRegistry()
        source.counter("c_total").inc(2)
        source.gauge("g").set(4)
        source.histogram("h_seconds").observe(0.25)
        target = MetricsRegistry()
        target.merge_from(source.snapshot())
        assert target.snapshot() == source.snapshot()


def test_default_buckets_are_sorted():
    assert list(obs.DEFAULT_BUCKETS) == sorted(obs.DEFAULT_BUCKETS)
    assert not math.isinf(obs.DEFAULT_BUCKETS[-1])


class InsortValues:
    """The oracle: raw histogram values kept sorted by one
    ``bisect.insort`` per observation."""

    def __init__(self, cap):
        self.cap = cap
        self.values = []

    def observe(self, value):
        if self.values is not None:
            if len(self.values) < self.cap:
                bisect.insort(self.values, value)
            else:
                self.values = None

    def merge(self, incoming):
        if self.values is None or len(self.values) + len(incoming) > self.cap:
            self.values = None
        else:
            self.values = sorted(self.values + incoming)

    def quantile(self, q):
        return self.values[max(1, math.ceil(q * len(self.values))) - 1]


#: Floats that compare equal but print apart (0.0 and -0.0) show whether
#: equal values keep their arrival order.
_HISTOGRAM_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                              st.floats(allow_nan=False))
_HISTOGRAM_OPS = st.lists(st.one_of(
    st.tuples(st.just("observe"), _HISTOGRAM_VALUES),
    st.tuples(st.just("quantile"), st.floats(0.0, 1.0)),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("merge"), st.lists(_HISTOGRAM_VALUES, max_size=6)),
), max_size=60)


@given(ops=_HISTOGRAM_OPS, cap=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_histogram_reads_match_the_insort_oracle(ops, cap):
    """However observations, reads and merges interleave, quantiles and
    snapshot values are the ones an insort per observation gives, down
    to the order of equal values."""
    registry = MetricsRegistry()
    histogram = registry.histogram("x_seconds")
    histogram._value_cap = cap
    oracle = InsortValues(cap)
    for op, arg in ops:
        if op == "observe":
            histogram.observe(arg)
            oracle.observe(arg)
        elif op == "merge":
            source = MetricsRegistry()
            incoming = InsortValues(len(arg))
            for value in arg:
                source.histogram("x_seconds").observe(value)
                incoming.observe(value)
            registry.merge_from(source.snapshot())
            oracle.merge(incoming.values)
        elif op == "quantile" and oracle.values:
            assert repr(histogram.quantile(arg)) == repr(oracle.quantile(arg))
        elif op == "snapshot":
            (child,) = registry.snapshot()["families"][0]["children"]
            assert repr(child["values"]) == repr(oracle.values)
        assert histogram.exact == (oracle.values is not None)
    (child,) = registry.snapshot()["families"][0]["children"]
    assert repr(child["values"]) == repr(oracle.values)
