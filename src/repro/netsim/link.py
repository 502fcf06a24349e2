"""Links: rate-limited, delayed, FIFO packet conduits.

A link serializes packets at ``rate_bps`` and delivers each after a fixed
propagation delay.  Because all flows traversing a link share one FIFO
serialization queue, bandwidth sharing and cross-traffic interference
(e.g. chat avatar downloads delaying video packets) emerge naturally.

:class:`TokenBucketShaper` models the ``tc`` token-bucket filter the paper
used on the tethering host to impose artificial bandwidth limits.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro import obs
from repro.faults.impair import LinkImpairment
from repro.netsim.events import EventLoop
from repro.netsim.packet import Packet

PacketSink = Callable[[Packet], None]
PacketTap = Callable[[Packet, float], None]


class Link:
    """Unidirectional link with serialization rate and propagation delay.

    ``deliver`` is called with each packet once it has fully crossed the
    link.  Observers registered with :meth:`tap` see packets at the moment
    they *enter* the link (like tcpdump on the sending interface).

    An optional :class:`~repro.faults.impair.LinkImpairment` injects
    loss/jitter/flap delay; it only ever pushes the busy horizon later,
    so the link stays a FIFO and the reliable-stream layer above needs
    no changes.
    """

    def __init__(
        self,
        loop: EventLoop,
        rate_bps: float,
        delay_s: float,
        name: str = "link",
        shaper: Optional["TokenBucketShaper"] = None,
        impairment: Optional[LinkImpairment] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay_s < 0:
            raise ValueError("link delay must be non-negative")
        self.loop = loop
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.name = name
        self.shaper = shaper
        self.impairment = impairment
        self.deliver: Optional[PacketSink] = None
        self._busy_until = 0.0
        #: Total serialization time ever scheduled (including the tail of
        #: packets still queued or on the wire).
        self._busy_time_scheduled = 0.0
        #: Loss-recovery time still occupying the busy horizon: queue
        #: wait behind it is HOL blocking caused by retransmissions, and
        #: attribution charges it to loss recovery, not the queue.
        self._recovery_backlog_s = 0.0
        #: Wall-clock frontier up to which queue waiting has been charged
        #: to attribution.  Per-packet waits overlap (every queued packet
        #: waits through the same busy interval), so attribution charges
        #: the *union* of waiting intervals — the wall-clock seconds some
        #: packet was queued — which is the delay the frontier packet,
        #: and hence the player, actually experiences.
        self._queue_charged_until = 0.0
        #: Idle intervals inside the busy horizon: a shaper or impairment
        #: deferral leaves the wire silent between the previous packet's
        #: end and the deferred start, yet ``_busy_until`` spans the gap.
        #: Gaps wholly in the past are pruned as they expire.
        self._gaps: Deque[Tuple[float, float]] = deque()
        #: Running sum of the gap lengths in ``_gaps``, so pending work
        #: is O(1) however many deferrals are queued.
        self._gap_total = 0.0
        #: The registry this link's per-packet series were resolved in;
        #: a link that outlives a telemetry scope re-resolves them in the
        #: next one.
        self._instrumented: Optional[obs.MetricsRegistry] = None
        self._packets_total: Optional[obs.Counter] = None
        self._bytes_total: Optional[obs.Counter] = None
        self._queue_delay: Optional[obs.Histogram] = None
        self._throttle_total: Optional[obs.Counter] = None
        self._impairment_total: Optional[obs.Counter] = None
        self._taps: List[PacketTap] = []
        self.bytes_carried = 0
        self.packets_carried = 0

    def tap(self, observer: PacketTap) -> None:
        """Register a capture observer (tcpdump-like, ingress side)."""
        self._taps.append(observer)

    def untap(self, observer: PacketTap) -> None:
        """Remove a previously registered observer."""
        self._taps.remove(observer)

    def _pending_tx_time(self, now: float) -> float:
        """Transmission work still ahead of the wire at ``now``.

        The busy horizon minus any idle deferral gaps inside it: a
        shaper or flap/jitter deferral pushes ``_busy_until`` out without
        the transmitter doing work over the gap, so the horizon alone
        overstates pending work.

        The gaps are disjoint, sorted, and each ends at or before the
        horizon: a gap opens no earlier than the horizon at its packet's
        admission, closes where that packet starts, and the horizon never
        moves back.  So once the expired gaps are popped, every remaining
        one lies wholly in ``[now, busy)`` except for the part of the
        first one already behind ``now``, and ``_gap_total`` less that
        part is the idle time still ahead.
        """
        pending = self._busy_until - now
        gaps = self._gaps
        if pending <= 0.0:
            if gaps:
                gaps.clear()
                self._gap_total = 0.0
            return 0.0
        if not gaps:
            return pending
        while gaps[0][1] <= now:
            gap_start, gap_end = gaps.popleft()
            if not gaps:
                self._gap_total = 0.0
                return pending
            self._gap_total -= gap_end - gap_start
        idle = self._gap_total
        first_start = gaps[0][0]
        if first_start < now:
            idle -= now - first_start
        pending -= idle
        return pending if pending > 0.0 else 0.0

    def utilization_until_now(self) -> float:
        """Fraction of elapsed time the transmitter has been busy.

        Counts only transmission that has already happened: serialization
        scheduled beyond ``now`` (bytes still queued or on the wire) and
        idle shaper/impairment deferral gaps are excluded, so the value
        is a true busy-time integral and always lands in [0, 1].
        """
        now = self.loop.now
        if now <= 0:
            return 0.0
        completed = self._busy_time_scheduled - self._pending_tx_time(now)
        return min(1.0, max(0.0, completed / now))

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission."""
        now = self.loop.now
        for observer in self._taps:
            observer(packet, now)
        arrival = self._admit(packet.wire_bytes, now)
        self.loop.schedule_at(arrival, lambda p=packet: self._arrive(p))

    def _admit(self, wire_bytes: int, now: float) -> float:
        """Book ``wire_bytes`` onto the wire at ``now``; return arrival time.

        All state arithmetic, attribution, and telemetry of packet
        admission live here, shared verbatim between the per-packet
        exact path (:meth:`send`) and the :mod:`repro.netsim.fastpath`
        engine — which is what makes the two paths bit-identical.

        This is the hottest function in the simulator (called once per
        packet per link); it is written with branches instead of
        ``max()`` calls and gates every telemetry-only computation, but
        the floating-point operations and their order are unchanged.
        """
        busy = self._busy_until
        if busy > now:
            queue_wait = busy - now
            charged = self._queue_charged_until
            frontier = now if now > charged else charged
            queue_charge = busy - frontier if busy > frontier else 0.0
            if charged < busy:
                self._queue_charged_until = busy
            eligible = busy
        else:
            queue_wait = 0.0
            queue_charge = 0.0
            eligible = now
        start = eligible
        shaper = self.shaper
        if shaper is not None:
            shaped = shaper.earliest_start(wire_bytes, start)
            if shaped > start:
                start = shaped
            shaper.consume(wire_bytes, start)
        throttle_wait = start - eligible
        tx_time = wire_bytes * 8.0 / self.rate_bps
        telemetry = obs._active  # obs.active() sans the call, per packet
        enabled = telemetry.enabled
        causes_on = enabled and telemetry.causes_on
        impair_wait = 0.0
        flap_wait = jitter_wait = recovery_wait = 0.0
        impairment = self.impairment
        if impairment is not None:
            if causes_on:
                flap_before = impairment.flap_defer_s
                jitter_before = impairment.jitter_added_s
                recovery_before = impairment.recovery_added_s
            impaired_start, recovery = impairment.apply(start, tx_time)
            impair_wait = (impaired_start - start) + recovery
            if causes_on:
                flap_wait = impairment.flap_defer_s - flap_before
                jitter_wait = impairment.jitter_added_s - jitter_before
                recovery_wait = impairment.recovery_added_s - recovery_before
            start = impaired_start
            tx_time += recovery
        if start > eligible:
            # The wire sits idle over [eligible, start): remember the gap
            # so utilization does not count it as pending work, and move
            # the queue-charge frontier past it so the next packet's wait
            # across the gap stays charged to throttle/flap/jitter (it
            # was, above) rather than re-charged to link.queue.
            self._gaps.append((eligible, start))
            self._gap_total += start - eligible
            if self._queue_charged_until < start:
                self._queue_charged_until = start
        busy = start + tx_time
        self._busy_until = busy
        self._busy_time_scheduled += tx_time
        self.bytes_carried += wire_bytes
        self.packets_carried += 1
        arrival = busy + self.delay_s
        if not enabled:
            return arrival
        if causes_on:
            causes = telemetry.causes
            recovered_share = min(queue_charge, self._recovery_backlog_s)
            if recovered_share > 0.0:
                self._recovery_backlog_s -= recovered_share
                causes.add("link.loss_recovery", recovered_share)
            if queue_charge > recovered_share:
                causes.add("link.queue", queue_charge - recovered_share)
            if throttle_wait > 0.0:
                causes.add("link.throttle", throttle_wait)
            if flap_wait > 0.0:
                causes.add("link.flap", flap_wait)
            if jitter_wait > 0.0:
                causes.add("link.jitter", jitter_wait)
            if recovery_wait > 0.0:
                causes.add("link.loss_recovery", recovery_wait)
                self._recovery_backlog_s += recovery_wait
        if telemetry.health_on and now > 0.0:
            completed = self._busy_time_scheduled - self._pending_tx_time(now)
            ok = completed <= now + 1e-9
            telemetry.health.check(
                "link.utilization_bounded", ok,
                "" if ok else
                f"{self.name}: {completed:.3f}s busy in {now:.3f}s elapsed",
            )
        if telemetry.metrics_on:
            metrics = telemetry.metrics
            if self._instrumented is not metrics:
                self._resolve_instruments(metrics)
            self._packets_total.inc()
            self._bytes_total.inc(wire_bytes)
            self._queue_delay.observe(queue_wait)
            if throttle_wait > 0.0:
                throttle_total = self._throttle_total
                if throttle_total is None:
                    throttle_total = self._throttle_total = metrics.counter(
                        "netsim_link_throttle_seconds_total",
                        "Token-bucket shaping delay", link=self.name,
                    )
                throttle_total.inc(throttle_wait)
            if impair_wait > 0.0:
                impairment_total = self._impairment_total
                if impairment_total is None:
                    impairment_total = self._impairment_total = metrics.counter(
                        "netsim_link_impairment_seconds_total",
                        "Injected loss-recovery/jitter/flap delay",
                        link=self.name,
                    )
                impairment_total.inc(impair_wait)
        return arrival

    def _resolve_instruments(self, metrics: obs.MetricsRegistry) -> None:
        """Look up this link's per-packet series in ``metrics`` once.

        The throttle and impairment series are resolved at their first
        event instead, so a link that never waits exports neither.
        """
        self._instrumented = metrics
        self._throttle_total = None
        self._impairment_total = None
        self._packets_total = metrics.counter(
            "netsim_link_packets_total", "Packets entering the link",
            link=self.name,
        )
        self._bytes_total = metrics.counter(
            "netsim_link_bytes_total", "Wire bytes entering the link",
            link=self.name,
        )
        self._queue_delay = metrics.histogram(
            "netsim_link_queue_delay_seconds",
            "Serialization-queue wait per packet", link=self.name,
        )

    def _arrive(self, packet: Packet) -> None:
        if self.deliver is None:
            raise RuntimeError(f"link {self.name!r} has no downstream sink")
        self.deliver(packet)

    @property
    def queue_delay_now(self) -> float:
        """Time a packet arriving now would wait before transmission."""
        return max(0.0, self._busy_until - self.loop.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Link({self.name!r}, {self.rate_bps / 1e6:.2f} Mbps, {self.delay_s * 1e3:.1f} ms)"


class TokenBucketShaper:
    """Token-bucket rate limiter, the model of ``tc ... tbf``.

    Tokens accrue at ``rate_bps``; a packet may start transmission once the
    bucket holds its full wire size.  The bucket depth bounds burst size.
    """

    def __init__(self, rate_bps: float, bucket_bytes: int) -> None:
        if rate_bps <= 0:
            raise ValueError("shaper rate must be positive")
        if bucket_bytes <= 0:
            raise ValueError("bucket must hold at least one byte")
        self.rate_bps = rate_bps
        self.bucket_bytes = bucket_bytes
        self._tokens = float(bucket_bytes)
        self._last_update = 0.0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_update)
        self._tokens = min(
            float(self.bucket_bytes), self._tokens + elapsed * self.rate_bps / 8.0
        )
        self._last_update = now

    def earliest_start(self, nbytes: int, now: float) -> float:
        """Earliest time a packet of ``nbytes`` may begin transmission."""
        self._refill(now)
        if self._tokens >= nbytes:
            return now
        deficit = nbytes - self._tokens
        return now + deficit * 8.0 / self.rate_bps

    def consume(self, nbytes: int, when: float) -> None:
        """Debit the bucket for a packet that starts at ``when``."""
        self._refill(when)
        self._tokens -= nbytes
