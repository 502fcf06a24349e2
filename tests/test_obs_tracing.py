"""Unit tests for sim-time tracing spans."""

import io
import json

from repro.obs.tracing import Tracer


def test_begin_end_records_sim_duration():
    tracer = Tracer()
    span = tracer.begin("session", sim_time=0.0, protocol="rtmp")
    tracer.end(span, sim_time=62.0)
    assert span.sim_duration == 62.0
    assert span.wall_duration is not None and span.wall_duration >= 0.0
    assert span.attrs == {"protocol": "rtmp"}
    assert tracer.spans == [span]


def test_nesting_assigns_parents():
    tracer = Tracer()
    outer = tracer.begin("outer", sim_time=0.0)
    inner = tracer.begin("inner", sim_time=1.0)
    tracer.end(inner, sim_time=2.0)
    tracer.end(outer, sim_time=3.0)
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    # Completion order: inner ends first.
    assert [s.name for s in tracer.spans] == ["inner", "outer"]
    assert tracer.children_of(outer) == [inner]


def test_record_retroactive_spans_under_open_parent():
    tracer = Tracer()
    root = tracer.begin("session", sim_time=0.0)
    join = tracer.record("session.join", 0.0, 2.5)
    stall = tracer.record("session.stall", 10.0, 12.0, parent=root)
    tracer.end(root, sim_time=62.0)
    assert join.parent_id == root.span_id
    assert stall.parent_id == root.span_id
    assert join.sim_duration == 2.5
    assert stall.wall_duration == 0.0


def test_jsonl_round_trip():
    tracer = Tracer()
    span = tracer.begin("session", sim_time=1.0, broadcast_id="abc")
    tracer.record("session.join", 1.0, 3.0)
    tracer.end(span, sim_time=10.0)
    sink = io.StringIO()
    assert tracer.write_jsonl(sink) == 2
    lines = sink.getvalue().splitlines()
    assert len(lines) == 2
    decoded = [json.loads(line) for line in lines]
    by_name = {d["name"]: d for d in decoded}
    assert by_name["session"]["attrs"] == {"broadcast_id": "abc"}
    assert by_name["session"]["sim_duration"] == 9.0
    assert by_name["session.join"]["parent_id"] == by_name["session"]["span_id"]


def test_find_by_name():
    tracer = Tracer()
    tracer.record("a", 0.0, 1.0)
    tracer.record("b", 0.0, 1.0)
    tracer.record("a", 1.0, 2.0)
    assert len(tracer.find("a")) == 2
    assert len(tracer.find("b")) == 1


def test_span_cap_drops_overflow():
    tracer = Tracer(max_spans=2)
    tracer.record("x", 0.0, 1.0)
    tracer.record("x", 0.0, 1.0)
    tracer.record("x", 0.0, 1.0)
    assert len(tracer.spans) == 2
    assert tracer.dropped == 1
