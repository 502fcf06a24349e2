"""Integration tests: connections over hosts, links and paths."""

import pytest

from repro.netsim.connection import WINDOW_BYTES, Connection, Message
from repro.netsim.events import EventLoop
from repro.netsim.packet import MSS
from repro.netsim.topology import Network
from repro.util.units import MBPS


def two_host_net(rate_bps=10 * MBPS, delay_s=0.01):
    loop = EventLoop()
    net = Network(loop)
    a, b = net.host("a"), net.host("b")
    net.duplex(a, b, rate_bps=rate_bps, delay_s=delay_s)
    return loop, net


def make_conn(loop, net, chain=("a", "b")):
    fwd, rev = net.duplex_paths(*chain)
    inbox = []
    conn = Connection(loop, fwd, rev, on_message=lambda m, t: inbox.append((m, t)))
    return conn, inbox


def test_message_delivery_end_to_end():
    loop, net = two_host_net()
    conn, inbox = make_conn(loop, net)
    msg = conn.send(Message(payload="hello", nbytes=5000))
    loop.run()
    assert len(inbox) == 1
    delivered, at = inbox[0]
    assert delivered.payload == "hello"
    assert delivered.delivered_at == at > 0
    assert conn.bytes_delivered == 5000


def test_delivery_time_matches_path_physics():
    loop, net = two_host_net(rate_bps=8 * MBPS, delay_s=0.05)
    conn, inbox = make_conn(loop, net)
    conn.send(Message(payload=None, nbytes=MSS))
    loop.run()
    _, at = inbox[0]
    # serialize ~1.5ms + 50ms propagation.
    assert 0.05 < at < 0.06


def test_messages_arrive_in_order():
    loop, net = two_host_net()
    conn, inbox = make_conn(loop, net)
    for i in range(20):
        conn.send(Message(payload=i, nbytes=3000))
    loop.run()
    assert [m.payload for m, _ in inbox] == list(range(20))


def test_window_limits_in_flight_bytes():
    loop, net = two_host_net(rate_bps=0.1 * MBPS)
    conn, _ = make_conn(loop, net)
    conn.send(Message(payload=None, nbytes=100 * MSS))
    assert conn.in_flight_bytes <= WINDOW_BYTES
    assert conn.backlog_bytes >= 100 * MSS - WINDOW_BYTES
    loop.run()
    assert conn.in_flight_bytes == 0


def test_two_flows_share_bottleneck_roughly_fairly():
    loop, net = two_host_net(rate_bps=1 * MBPS, delay_s=0.005)
    conn1, inbox1 = make_conn(loop, net)
    conn2, inbox2 = make_conn(loop, net)
    nbytes = 250_000  # 2 Mbit each, 4 Mbit total over 1 Mbps ~ 4s
    conn1.send(Message(payload=1, nbytes=nbytes))
    conn2.send(Message(payload=2, nbytes=nbytes))
    loop.run()
    t1 = inbox1[0][1]
    t2 = inbox2[0][1]
    # Both finish near the 4s mark — neither starved.
    assert t1 == pytest.approx(t2, rel=0.2)
    assert 3.0 < max(t1, t2) < 5.5


def test_close_stops_delivery_and_unbinds():
    loop, net = two_host_net(rate_bps=0.5 * MBPS)
    conn, inbox = make_conn(loop, net)
    conn.send(Message(payload="x", nbytes=500_000))
    conn.close()
    loop.run()
    assert inbox == []
    with pytest.raises(RuntimeError):
        conn.send(Message(payload="y", nbytes=10))


def test_multihop_path_through_relay():
    loop = EventLoop()
    net = Network(loop)
    phone, desktop, server = net.host("phone"), net.host("desktop"), net.host("server")
    net.duplex(server, desktop, rate_bps=100 * MBPS, delay_s=0.02)
    net.duplex(desktop, phone, rate_bps=100 * MBPS, delay_s=0.001)
    fwd, rev = net.duplex_paths("server", "desktop", "phone")
    inbox = []
    conn = Connection(loop, fwd, rev, on_message=lambda m, t: inbox.append(t))
    conn.send(Message(payload=None, nbytes=1000))
    loop.run()
    assert len(inbox) == 1
    assert inbox[0] > 0.021  # both propagation delays


def test_message_with_real_bytes_chunks_correctly():
    loop, net = two_host_net()
    data = bytes(range(256)) * 20  # 5120 bytes
    fwd, rev = net.duplex_paths("a", "b")
    chunks = []
    conn = Connection(loop, fwd, rev, on_message=lambda m, t: None)
    fwd.links[-1].tap(lambda p, t: chunks.append(p.chunk) if not p.is_ack else None)
    conn.send(Message(payload=None, nbytes=len(data), data=data))
    loop.run()
    assert b"".join(c for c in chunks if c) == data


def test_message_validation():
    with pytest.raises(ValueError):
        Message(payload=None, nbytes=0)
    with pytest.raises(ValueError):
        Message(payload=None, nbytes=5, data=b"abc")


def test_mismatched_reverse_path_rejected():
    loop = EventLoop()
    net = Network(loop)
    a, b, c = net.host("a"), net.host("b"), net.host("c")
    net.duplex(a, b, rate_bps=1e6, delay_s=0.0)
    net.duplex(b, c, rate_bps=1e6, delay_s=0.0)
    fwd = net.path("a", "b")
    bad_rev = net.path("c", "b")
    with pytest.raises(ValueError):
        Connection(loop, fwd, bad_rev)
