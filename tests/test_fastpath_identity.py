"""Seed-sweep identity properties of the network fast path.

The segment-granularity fast path (:mod:`repro.netsim.fastpath`)
advertises one guarantee: simulation *results* are bit-identical to the
exact per-packet path.  These tests sweep seeds, fault plans, protocols,
bandwidth limits, and worker counts, and compare fast vs. exact runs by
pickled bytes — any float, ordering, or RNG divergence fails loudly.
"""

import pickle
import random

import pytest

from repro.automation.devices import GALAXY_S3, GALAXY_S4
from repro.core.config import StudyConfig
from repro.core.session import SessionSetup, ViewingSession
from repro.core.study import AutomatedViewingStudy
from repro.faults import FaultPlan
from repro.netsim import fastpath
from repro.netsim.connection import Connection, Message
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.netsim.trace import TraceCapture
from repro.service.broadcast import sample_broadcast
from repro.service.geo import POPULATION_CENTERS, GeoPoint
from repro.service.selection import DeliveryProtocol

from test_replay import _canonical_trace

SEEDS = list(range(41, 53))  # 12 seeds

FAULT_SPEC = "loss=0.02,jitter=0.005,ingest=0.03:1:2,api5xx=0.1"


def _setup_for(seed: int, faulted: bool) -> SessionSetup:
    """One deterministic session setup: protocol, device, limit, and
    broadcast all derive from the seed so the sweep covers the matrix."""
    b = sample_broadcast(random.Random(seed), 0.0, GeoPoint(41.0, 28.9),
                         POPULATION_CENTERS[seed % len(POPULATION_CENTERS)])
    b.mean_viewers = 8.0 + (seed % 5) * 40.0
    b.duration_s = 7200.0
    return SessionSetup(
        broadcast=b,
        age_at_join=30.0 + (seed % 7) * 25.0,
        protocol=DeliveryProtocol.RTMP if seed % 2 else DeliveryProtocol.HLS,
        device=GALAXY_S4 if seed % 2 else GALAXY_S3,
        bandwidth_limit_mbps=(0.5, 2.0, 100.0)[seed % 3],
        watch_seconds=6.0,
        seed=seed,
        faults=FaultPlan.parse(FAULT_SPEC) if faulted else None,
    )


def _run(setup: SessionSetup, exact: bool):
    """One session's artifacts, its loop event count and its tether
    capture."""
    with fastpath.exact_network(exact):
        session = ViewingSession(setup)
        capture = session.testbed.start_capture()
        return session.run(), session.loop.events_processed, capture


class TestSessionIdentitySweep:
    """fast == exact for single sessions across seeds and fault plans."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faulted"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_equals_exact(self, seed, faulted):
        fast, fast_events, fast_capture = _run(_setup_for(seed, faulted),
                                               exact=False)
        exact, exact_events, exact_capture = _run(_setup_for(seed, faulted),
                                                  exact=True)
        # Per-hop callbacks fire only on the exact path.
        assert exact_events > fast_events
        assert pickle.dumps(fast.qoe) == pickle.dumps(exact.qoe)
        assert fast.total_down_bytes == exact.total_down_bytes
        assert fast.avatar_bytes == exact.avatar_bytes
        assert fast.chat_messages == exact.chat_messages
        # The download counter is the capture's down total on both paths.
        assert fast.total_down_bytes == fast_capture.total_bytes(direction="down")
        assert exact.total_down_bytes == exact_capture.total_bytes(direction="down")
        # Stronger than results: the packet traces themselves agree
        # line-for-line (timestamps, order, sizes, annotations).
        assert _canonical_trace(fast_capture) == _canonical_trace(exact_capture)


def _tied_flows(exact: bool):
    """Two flows from ``a1``/``a2`` whose packets reach the shared
    ``b -> c`` link at identical float timestamps (twin access links),
    with ``c`` answering every message from inside ``on_message`` so
    callbacks book packets amid the ties.  Returns the capture of the
    shared duplex link and the delivery log."""
    with fastpath.exact_network(exact):
        loop = EventLoop()
        net = Network(loop)
        for name in ("a1", "a2"):
            net.duplex(net.host(name), net.host("b"), rate_bps=8e6, delay_s=0.004)
        shared = net.duplex(net.host("b"), net.host("c"), rate_bps=20e6,
                            delay_s=0.01)
        capture = TraceCapture(capture_payload=False)
        capture.tap_link(shared.a_to_b, "down")
        capture.tap_link(shared.b_to_a, "up")
        delivered = []
        replies = [Connection(loop, *net.duplex_paths("c", "b", name))
                   for name in ("a1", "a2")]
        for reply in replies:
            reply.on_message = lambda message, t: delivered.append(("reply", t))

        def answer(index):
            def on_message(message, t):
                delivered.append((index, t))
                replies[index].send(Message(payload=None, nbytes=3_000))
            return on_message

        flows = [Connection(loop, *net.duplex_paths(name, "b", "c"),
                            on_message=answer(index))
                 for index, name in enumerate(("a1", "a2"))]

        def send_all():
            for flow in flows:
                for _ in range(3):
                    flow.send(Message(payload=None, nbytes=20_000))

        loop.schedule(0.0, send_all)
        loop.run()
    index_of = {conn.flow_id: index for index, conn in enumerate(flows + replies)}
    trace = [(r.timestamp, index_of[r.flow_id], r.seq, r.is_ack, r.direction)
             for r in capture.records]
    return trace, delivered


def test_equal_timestamps_keep_capture_order():
    """Capture records keep their order even between packets of
    different flows with exactly equal timestamps: each micro-event
    carries the ``(time, seq)`` tie-break the heap would have used."""
    exact, exact_delivered = _tied_flows(exact=True)
    fast, fast_delivered = _tied_flows(exact=False)
    ties = sum(1 for a, b in zip(exact, exact[1:])
               if a[0] == b[0] and a[1] != b[1])
    assert ties > 10, "scenario produced no cross-flow timestamp ties"
    assert fast == exact
    assert fast_delivered == exact_delivered


def _dataset_bytes(dataset) -> tuple:
    """Byte-level fingerprint of a dataset.

    Sessions are pickled one by one: a whole-list pickle also encodes
    which objects happen to be *shared* between sessions, and the
    process-pool path legitimately loses that sharing when results cross
    the process boundary.  Values — every float, string, and count —
    stay bit-compared."""
    return (
        [pickle.dumps(q) for q in dataset.sessions],
        dataset.avatar_bytes,
        dataset.down_bytes,
        dataset.shortfall,
    )


#: The unwrapped method, so that every counting wrapper calls it and
#: never a wrapper installed by an earlier call.
_VIEWING_SESSION_RUN = ViewingSession.run


def _study_run(seed: int, faulted: bool, workers: int, monkeypatch):
    """One three-session batch: its dataset fingerprint and, for each
    session that ran in this process, its loop event count.  The exact
    path fires one loop callback per packet per hop, so the counts show
    which path a run took."""
    events_processed = []

    def counting_run(session):
        artifacts = _VIEWING_SESSION_RUN(session)
        events_processed.append(session.loop.events_processed)
        return artifacts

    monkeypatch.setattr(ViewingSession, "run", counting_run)
    study = AutomatedViewingStudy(StudyConfig(
        seed=seed,
        watch_seconds=6.0,
        workers=workers,
        faults=FaultPlan.parse(FAULT_SPEC) if faulted else None,
    ))
    dataset = study.run_batch(3, bandwidth_limit_mbps=2.0)
    return _dataset_bytes(dataset), events_processed


class TestStudyIdentityAcrossWorkers:
    """pooled fast == inline fast == inline exact for whole batches."""

    @pytest.mark.parametrize("faulted", [False, True], ids=["pristine", "faulted"])
    def test_workers_and_modes_agree(self, faulted, monkeypatch):
        seed = 2016
        reference, fast_events = _study_run(seed, faulted, 1, monkeypatch)
        with fastpath.exact_network():
            exact, exact_events = _study_run(seed, faulted, 1, monkeypatch)
        assert exact == reference
        # The exact side really ran per packet: every session fired more
        # loop events than its fast twin.
        assert len(exact_events) == len(fast_events) == 3
        assert all(e > f for e, f in zip(exact_events, fast_events))
        for workers in (2, 4):
            assert _study_run(seed, faulted, workers, monkeypatch)[0] == reference


def test_exact_network_restores_the_mode_when_its_body_raises():
    previous = fastpath.enabled()
    with pytest.raises(RuntimeError):
        with fastpath.exact_network():
            assert not fastpath.enabled()
            raise RuntimeError("boom")
    assert fastpath.enabled() == previous
