"""Tests for HTTP over the simulated network."""

import pytest

from repro.netsim.duplex import DuplexStream
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.protocols.http import (
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    HttpClient,
    HttpRequest,
    HttpResponse,
    HttpServer,
    HttpStatus,
)
from repro.util.units import MBPS


def http_pair(handler, rate_bps=10 * MBPS, delay_s=0.01):
    loop = EventLoop()
    net = Network(loop)
    client_host, server_host = net.host("client"), net.host("server")
    net.duplex(client_host, server_host, rate_bps=rate_bps, delay_s=delay_s)
    stream = DuplexStream(loop, net, "client", "server")
    server = HttpServer(loop, stream, handler, client_label="client")
    client = HttpClient(loop, stream)
    return loop, client, server


def test_request_sizes():
    req = HttpRequest("POST", "/api/v2/apiRequest", json_body={"cookie": "abc"})
    assert req.body_bytes == len('{"cookie":"abc"}')
    assert req.nbytes == REQUEST_HEADER_BYTES + req.body_bytes


def test_response_sizes():
    resp = HttpResponse(HttpStatus.OK, json_body={"ok": True})
    assert resp.nbytes == RESPONSE_HEADER_BYTES + len('{"ok":true}')


def test_method_validation():
    with pytest.raises(ValueError):
        HttpRequest("PUT", "/x")


def test_round_trip_request_response():
    def handler(request, label):
        assert label == "client"
        return HttpResponse(HttpStatus.OK, json_body={"echo": request.path})

    loop, client, server = http_pair(handler)
    results = []
    client.request(
        HttpRequest("GET", "/hello"), lambda resp, t: results.append((resp, t))
    )
    loop.run()
    assert len(results) == 1
    resp, t = results[0]
    assert resp.status == HttpStatus.OK
    assert resp.json_body == {"echo": "/hello"}
    assert t > 0.02  # two propagation delays + processing
    assert server.requests_served == 1
    assert client.outstanding == 0


def test_multiple_outstanding_requests_matched_by_id():
    def handler(request, label):
        return HttpResponse(HttpStatus.OK, json_body={"path": request.path})

    loop, client, _ = http_pair(handler)
    got = {}
    for path in ("/a", "/b", "/c"):
        client.request(
            HttpRequest("GET", path),
            lambda resp, t, p=path: got.update({p: resp.json_body["path"]}),
        )
    loop.run()
    assert got == {"/a": "/a", "/b": "/b", "/c": "/c"}


def test_429_status_delivered():
    def handler(request, label):
        return HttpResponse(HttpStatus.TOO_MANY_REQUESTS, json_body={})

    loop, client, _ = http_pair(handler)
    statuses = []
    client.request(HttpRequest("POST", "/x", json_body={}), lambda r, t: statuses.append(r.status))
    loop.run()
    assert statuses == [HttpStatus.TOO_MANY_REQUESTS]


def test_large_response_takes_longer_on_slow_link():
    def handler(request, label):
        return HttpResponse(HttpStatus.OK, body_bytes=500_000)

    loop, client, _ = http_pair(handler, rate_bps=1 * MBPS)
    times = []
    client.request(HttpRequest("GET", "/big"), lambda r, t: times.append(t))
    loop.run()
    # 500 kB at 1 Mbps ≈ 4 s.
    assert times[0] > 3.0
