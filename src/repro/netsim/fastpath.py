"""Segment-granularity transport fast path.

The exact network model moves every packet through the topology as a
chain of event-loop callbacks: one scheduled arrival per link crossed by
the packet, one more per ACK hop, plus host dictionary routing and a
:class:`~repro.netsim.packet.Packet` object at each step.  Profiling
shows that for a viewing session this machinery — not the link
arithmetic — dominates wall time.

This module removes the machinery without touching the arithmetic.  A
:class:`FastLane` replaces the per-packet event chain of one connection
with *micro-events* kept in per-hop FIFO deques owned by the loop's
:class:`FastEngine`:

* Packet admission calls the same :meth:`Link._admit` the exact path
  uses — identical floating-point operations in identical order, so
  busy horizons, shaper state, impairment RNG draws, causes attribution
  and telemetry are bit-identical by construction.
* Micro-events are processed in global time order, interleaved with the
  loop's real events: the loop drains every micro-event that precedes
  its next live event before firing it (ties break on the shared
  sequence counter).  A booking can therefore never happen out of order
  with respect to any other flow — fast or exact — sharing a link.
* Because links are FIFO and a lane's packets cross each link in
  sequence order, the pending arrivals of one (lane, hop) pair are
  already time-ordered — a deque per hop replaces a heap, enqueue is
  O(1) with zero allocation (the pending time rides on the packet
  itself), and a lane's earliest event is the minimum over at most four
  deque heads, cached on the lane.
* Arbitrary code (which can touch other lanes, links, or the real-event
  queue) runs only inside a completed message's ``on_message`` callback.
  :meth:`FastEngine._drain` exploits that: it computes the interference
  bound — the earliest real event and earliest other-lane micro-event —
  once per region, then runs the winning lane's hops in a tight inner
  loop until the bound is reached or a callback fires.

What is intentionally **not** preserved in fast mode: per-hop event-loop
callbacks, so ``EventLoop.events_processed`` and profiler callback-site
attribution shrink.  Simulation *results* — delivery times, QoE,
datasets — are bit-identical to the exact path, and so are packet
captures, record for record and in the same order: taps fire at the
same hops in the same ``(time, seq)`` order, ties between packets with
exactly equal timestamps included.  That leaves the exact path one job:
it is the oracle the identity tests compare the fast path against, and
:func:`exact_network` is its only switch.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.netsim.events import EventLoop
from repro.netsim.packet import HEADER_BYTES, MSS, Packet

__all__ = [
    "FastEngine",
    "FastLane",
    "attach",
    "enabled",
    "exact_network",
]

#: ACK packets carry no payload: header bytes only on the wire.
_ACK_WIRE_BYTES = HEADER_BYTES

_INF = float("inf")

#: Process-wide switch, flipped only by :func:`exact_network`.  Read once
#: per Connection at construction, so flipping it never strands a
#: half-migrated transfer.
_enabled = True


def enabled() -> bool:
    """Whether new connections use the fast path."""
    return _enabled


@contextmanager
def exact_network(exact: bool = True) -> Iterator[None]:
    """Scope this process's network path: exact per-packet when
    ``exact``, the fast path otherwise.  The previous mode is restored
    on exit, also when the body raises.

    The mode is process state, not study config: pool workers are not
    told about it, so the identity tests run the exact side serially.
    """
    global _enabled
    previous = _enabled
    _enabled = not exact
    try:
        yield
    finally:
        _enabled = previous


def attach(loop: EventLoop) -> Optional["FastEngine"]:
    """The loop's engine (created on first use), or None when disabled."""
    if not _enabled:
        return None
    engine = loop._fast
    if engine is None:
        engine = FastEngine(loop)
    return engine


class _FastPacket:
    """Slim per-segment state: one MSS-sized slice of a message.

    Replaces the per-hop :class:`Packet` dataclass; a real ``Packet`` is
    materialized lazily (and cached) only when a tapped link needs to
    show one to its observers.
    """

    __slots__ = (
        "seq",
        "payload_bytes",
        "message",
        "offset",
        "final",
        "chunk",
        "ann_items",
        "sent_at",
        "_data_packet",
        "_ack_packet",
        # Micro-event slot: a packet sits in exactly one per-hop FIFO at
        # a time, so its pending (time, tie-break seq) live on the packet
        # itself — no event tuples are ever allocated.
        "ev_time",
        "ev_seq",
    )

    def as_data_packet(self, flow_id: int) -> Packet:
        packet = self._data_packet
        if packet is None:
            message = self.message
            ann_items = self.ann_items
            packet = Packet.__new__(Packet)
            packet.__dict__ = {
                "flow_id": flow_id,
                "seq": self.seq,
                "payload_bytes": self.payload_bytes,
                "is_ack": False,
                "message_id": message.message_id,
                "message_offset": self.offset,
                "message_total": message.nbytes,
                "annotations": dict(ann_items),
                "chunk": self.chunk,
                "sent_at": self.sent_at,
                "ann_items": ann_items,
            }
            self._data_packet = packet
        return packet

    def as_ack_packet(self, flow_id: int) -> Packet:
        packet = self._ack_packet
        if packet is None:
            items = (("_acked_bytes", self.payload_bytes),)
            packet = Packet.__new__(Packet)
            packet.__dict__ = {
                "flow_id": flow_id,
                "seq": self.seq,
                "payload_bytes": 0,
                "is_ack": True,
                "message_id": -1,
                "message_offset": 0,
                "message_total": 0,
                "annotations": dict(items),
                "chunk": None,
                "sent_at": 0.0,
                "ann_items": items,
            }
            self._ack_packet = packet
        return packet


class FastEngine:
    """Per-loop micro-event scheduler for fast-path transfers.

    Micro-events are not kept in one global heap.  Within a lane,
    packets cross each route link in seq order and every link is a
    FIFO, so the pending arrivals of one (lane, hop) pair are already
    time-ordered — a plain deque per hop suffices, with the pending
    ``(ev_time, ev_seq)`` stored on the packet itself (no event tuples,
    no heap sifts).  Each lane caches the minimum over its hop deques;
    the engine's next micro-event is the minimum over the (few) active
    lanes' cached heads.

    Tie-break sequence numbers come from the loop's own counter, so
    micro-events order against real events exactly as two real events
    would.
    """

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        #: Lanes with at least one pending micro-event.  Kept tiny (the
        #: handful of connections with bytes in flight), so a linear
        #: minimum scan beats heap maintenance.
        self.active: List["FastLane"] = []
        self._seq = loop._seq
        loop._fast = self

    # ------------------------------------------------------------- draining

    def drain_before_events(self) -> None:
        """Process every micro-event preceding the loop's next live event."""
        self._drain(_INF, 0)

    def drain_until(self, time: float) -> bool:
        """Process micro-events with timestamps ``<= time`` (still yielding
        to earlier real events).  Returns True if any was processed."""
        return self._drain(time, _INF)

    def _drain(self, limit_time: float, limit_seq: float) -> bool:
        """The micro-event pump.  The hop handling that conceptually lives
        on :class:`FastLane` is inlined here — this loop runs once per
        packet per link and is the hottest code in the simulator.

        The key structural fact: processing a micro-event runs arbitrary
        code (which may send on other connections, schedule real events,
        or close things) **only** when a completed message's
        ``on_message`` callback fires.  Every other hop touches nothing
        but its own lane and its links.  The loop therefore computes the
        interference bound — the earliest pending real event and the
        earliest other-lane micro-event — once per *region*, then runs
        the winning lane's events in a tight inner loop against that
        bound, rescanning only after an ``on_message`` (or when the
        bound is reached).
        """
        active = self.active
        if not active:
            return False
        loop = self.loop
        peek = loop._peek_live
        seq = self._seq
        processed = False
        while active:
            # ---- earliest micro-event across active lanes (cached heads)
            lane = active[0]
            t = lane.head_time
            s = lane.head_seq
            for other in active:
                ot = other.head_time
                if ot < t or (ot == t and other.head_seq < s):
                    lane = other
                    t = ot
                    s = other.head_seq
            if t > limit_time or (t == limit_time and s >= limit_seq):
                break
            head = peek()
            if head is not None and (head[0] < t or (head[0] == t and head[1] < s)):
                break  # a real event precedes this micro-event
            # ---- interference bound for this lane's run
            bound_t = limit_time
            bound_s = limit_seq
            if head is not None and (head[0] < bound_t or
                                     (head[0] == bound_t and head[1] < bound_s)):
                bound_t = head[0]
                bound_s = head[1]
            for other in active:
                if other is not lane:
                    ot = other.head_time
                    if ot < bound_t or (ot == bound_t and other.head_seq < bound_s):
                        bound_t = ot
                        bound_s = other.head_seq
            pending = lane.pending
            conn = lane.conn
            flow_id = conn.flow_id
            last_data = lane.last_data
            last_stage = lane.last_stage
            hops = lane.hops
            # ---- tight per-lane run up to the bound
            while True:
                t = lane.head_time
                if t > bound_t or (t == bound_t and lane.head_seq >= bound_s):
                    break
                r = lane.head_hop
                fp = pending[r].popleft()
                npending = lane.npending - 1
                lane.npending = npending
                if npending == 0:
                    active.remove(lane)
                    lane.head_time = _INF
                    lane.head_hop = -1
                else:
                    # Recompute this lane's cached head (<= 4 deque peeks).
                    bt = _INF
                    bs = 0
                    br = -1
                    hop = 0
                    for d in pending:
                        if d:
                            h = d[0]
                            ht = h.ev_time
                            if ht < bt or (ht == bt and h.ev_seq < bs):
                                bt = ht
                                bs = h.ev_seq
                                br = hop
                        hop += 1
                    lane.head_time = bt
                    lane.head_seq = bs
                    lane.head_hop = br
                processed = True
                # -------- hop arrival (FastLane logic, inlined) --------
                loop._now = t
                if conn.closed:
                    if npending == 0:
                        break
                    continue
                ran_callback = False
                if r == last_data:
                    # Data reached the receiver endpoint.  The ACK departs
                    # within the same instant — even if the handler just
                    # closed the connection (the exact path books the ACK
                    # onto the first reverse link before the unbound host
                    # drops it downstream).
                    conn._bytes_delivered += fp.payload_bytes
                    if fp.final:
                        message = fp.message
                        message.delivered_at = t
                        on_message = conn.on_message
                        if on_message is not None:
                            on_message(message, t)
                            ran_callback = True
                    nxt = lane.nf
                elif r == last_stage:
                    # ACK reached the sender endpoint: open the window.
                    conn._in_flight -= fp.payload_bytes
                    if conn._send_queue:
                        lane.pump(t)
                    if npending == 0 and lane.npending == 0:
                        break
                    continue
                else:
                    nxt = r + 1
                admit, taps, is_data = hops[nxt]
                if is_data:
                    if taps:
                        packet = fp.as_data_packet(flow_id)
                        for observer in taps:
                            observer(packet, t)
                    t2 = admit(fp.payload_bytes + HEADER_BYTES, t)
                else:
                    if taps:
                        packet = fp.as_ack_packet(flow_id)
                        for observer in taps:
                            observer(packet, t)
                    t2 = admit(_ACK_WIRE_BYTES, t)
                # ---- enqueue the next hop's arrival (O(1), no allocation)
                s2 = next(seq)
                fp.ev_time = t2
                fp.ev_seq = s2
                pending[nxt].append(fp)
                if lane.npending == 0:
                    active.append(lane)
                    lane.npending = 1
                    lane.head_time = t2
                    lane.head_seq = s2
                    lane.head_hop = nxt
                else:
                    lane.npending += 1
                    ht = lane.head_time
                    if t2 < ht or (t2 == ht and s2 < lane.head_seq):
                        lane.head_time = t2
                        lane.head_seq = s2
                        lane.head_hop = nxt
                if ran_callback:
                    # Arbitrary code ran: other lanes and the real-event
                    # queue may have changed.  Recompute the bound.
                    break
        return processed


class FastLane:
    """Fast-path transport state for one :class:`Connection`.

    Shares the connection's ``_send_queue`` / ``_in_flight`` /
    ``_next_seq`` bookkeeping so backpressure properties
    (``backlog_bytes``, ``in_flight_bytes``) keep working unchanged.
    """

    __slots__ = ("engine", "loop", "conn", "route", "hops", "nf",
                 "last_data", "last_stage", "pending", "npending",
                 "head_time", "head_seq", "head_hop")

    def __init__(self, engine: FastEngine, conn) -> None:
        self.engine = engine
        self.loop = engine.loop
        self.conn = conn
        #: Forward (data) links then reverse (ACK) links, in hop order.
        self.route = tuple(conn.forward.links) + tuple(conn.reverse.links)
        self.nf = len(conn.forward.links)
        self.last_data = self.nf - 1
        self.last_stage = len(self.route) - 1
        #: Per-hop dispatch table: ``(link._admit, link._taps, is_data)``.
        #: Bound methods and the (mutable, identity-stable) tap lists are
        #: resolved once so the drain loop does no attribute chasing.
        self.hops = tuple(
            (link._admit, link._taps, index < self.nf)
            for index, link in enumerate(self.route)
        )
        #: One FIFO of in-flight packets per hop (arrivals are time-ordered
        #: within a hop), plus the cached minimum across the hop heads.
        self.pending = tuple(deque() for _ in self.route)
        self.npending = 0
        self.head_time = _INF
        self.head_seq = 0
        self.head_hop = -1

    # ----------------------------------------------------------------- send

    def send(self, message) -> None:
        """Chunk ``message`` and transmit what the window allows — the
        fast twin of ``Connection.send`` + ``Connection._pump``."""
        conn = self.conn
        now = self.loop.now
        message.queued_at = now
        # Annotation keys are unique, so a plain tuple sort never falls
        # through to comparing values and equals the key-sorted order.
        base_items = tuple(sorted(message.annotations.items()))
        # The final segment additionally carries the message object under
        # "_message"; splice it into its sorted slot instead of re-sorting.
        slot = 0
        for key, _ in base_items:
            if key > "_message":
                break
            slot += 1
        final_items = base_items[:slot] + (("_message", message),) + base_items[slot:]
        queue = conn._send_queue
        append = queue.append
        data = message.data
        total = message.nbytes
        seq = conn._next_seq
        offset = 0
        while offset < total:
            remaining = total - offset
            size = MSS if remaining > MSS else remaining
            fp = _FastPacket()
            fp.seq = seq
            fp.payload_bytes = size
            fp.message = message
            fp.offset = offset
            fp.chunk = data[offset : offset + size] if data is not None else None
            fp.sent_at = 0.0
            fp._data_packet = None
            fp._ack_packet = None
            seq += 1
            offset += size
            if offset >= total:
                fp.final = True
                fp.ann_items = final_items
            else:
                fp.final = False
                fp.ann_items = base_items
            append(fp)
        conn._next_seq = seq
        self.pump(now)
        return message

    def pump(self, t: float) -> None:
        """Book window-eligible queued segments onto the first link."""
        conn = self.conn
        queue = conn._send_queue
        if not queue:
            return
        window = conn.window_bytes
        engine = self.engine
        seq = engine._seq
        admit, taps, _ = self.hops[0]
        flow_id = conn.flow_id
        pend0 = self.pending[0]
        while queue and conn._in_flight + queue[0].payload_bytes <= window:
            fp = queue.popleft()
            fp.sent_at = t
            payload = fp.payload_bytes
            conn._in_flight += payload
            conn._bytes_sent += payload
            if taps:
                packet = fp.as_data_packet(flow_id)
                for observer in taps:
                    observer(packet, t)
            t2 = admit(payload + HEADER_BYTES, t)
            s2 = next(seq)
            fp.ev_time = t2
            fp.ev_seq = s2
            pend0.append(fp)
            if self.npending == 0:
                engine.active.append(self)
                self.npending = 1
                self.head_time = t2
                self.head_seq = s2
                self.head_hop = 0
            elif t2 < self.head_time or (
                t2 == self.head_time and s2 < self.head_seq
            ):
                self.npending += 1
                self.head_time = t2
                self.head_seq = s2
                self.head_hop = 0
            else:
                self.npending += 1

    # The per-hop arrival handling (host routing, ``_deliver_data`` /
    # ``_deliver_ack`` mirroring, next-hop admission) lives inlined in
    # :meth:`FastEngine._drain` — it runs once per packet per link.
