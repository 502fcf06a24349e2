"""Tests for the trace-capture utilities."""

import pytest

from repro.netsim.connection import Connection, Message
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.netsim.trace import TraceCapture
from repro.util.units import MBPS


@pytest.fixture()
def captured():
    loop = EventLoop()
    net = Network(loop)
    a, b = net.host("a"), net.host("b")
    net.duplex(a, b, rate_bps=10 * MBPS, delay_s=0.01)
    capture = TraceCapture()
    capture.tap_link(net.link_between(a, b), "down")
    capture.tap_link(net.link_between(b, a), "up")
    fwd, rev = net.duplex_paths("a", "b")
    conn = Connection(loop, fwd, rev, on_message=lambda m, t: None)
    for i in range(5):
        conn.send(Message(payload=i, nbytes=3000,
                          annotations={"protocol": "test"}))
    loop.run()
    return capture, conn


def test_records_both_directions(captured):
    capture, _ = captured
    directions = {r.direction for r in capture.records}
    assert directions == {"down", "up"}


def test_data_vs_ack_split(captured):
    capture, _ = captured
    data = capture.data_records()
    acks = [r for r in capture.records if r.is_ack]
    assert data and acks
    assert all(r.payload_bytes > 0 for r in data)
    assert all(r.payload_bytes == 0 for r in acks)


def test_flow_grouping(captured):
    capture, conn = captured
    flows = capture.flows()
    assert conn.flow_id in flows


def test_total_bytes_accounting(captured):
    capture, _ = captured
    down_all = capture.total_bytes(direction="down")
    down_data = capture.total_bytes(direction="down", include_acks=False)
    assert down_all >= down_data > 5 * 3000


def test_byterate_window(captured):
    capture, _ = captured
    rate = capture.byterate_bps(0.0, 1.0, direction="down")
    assert rate > 0
    with pytest.raises(ValueError):
        capture.byterate_bps(1.0, 1.0)


def test_filter_and_annotations(captured):
    capture, _ = captured
    tagged = capture.filter(lambda r: r.annotation("protocol") == "test")
    assert tagged
    assert tagged[0].annotation("missing", "default") == "default"


def test_stop_detaches():
    loop = EventLoop()
    net = Network(loop)
    a, b = net.host("a"), net.host("b")
    net.duplex(a, b, rate_bps=10 * MBPS, delay_s=0.0)
    capture = TraceCapture()
    capture.tap_link(net.link_between(a, b), "down")
    capture.stop()
    fwd, rev = net.duplex_paths("a", "b")
    conn = Connection(loop, fwd, rev)
    conn.send(Message(payload=None, nbytes=100))
    loop.run()
    assert len(capture) == 0
