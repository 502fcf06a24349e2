"""Unit tests for links and token-bucket shaping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.faults.impair import FlapSchedule, LinkImpairment, LossSpec
from repro.netsim.events import EventLoop
from repro.netsim.link import Link, TokenBucketShaper
from repro.netsim.packet import HEADER_BYTES, Packet


def make_packet(nbytes=1000, flow=1, seq=0):
    return Packet(flow_id=flow, seq=seq, payload_bytes=nbytes)


def test_link_serialization_plus_propagation():
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.5)  # 1000 B/s
    arrivals = []
    link.deliver = lambda p: arrivals.append(loop.now)
    pkt = make_packet(nbytes=1000 - HEADER_BYTES)  # exactly 1000 wire bytes
    link.send(pkt)
    loop.run()
    # 1000 bytes at 1000 B/s = 1 s serialize + 0.5 s propagate.
    assert arrivals == [pytest.approx(1.5)]


def test_link_fifo_queueing_delay():
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0)
    arrivals = []
    link.deliver = lambda p: arrivals.append((p.seq, loop.now))
    link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=0))
    link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=1))
    loop.run()
    assert arrivals[0] == (0, pytest.approx(1.0))
    assert arrivals[1] == (1, pytest.approx(2.0))


def test_link_requires_positive_rate():
    with pytest.raises(ValueError):
        Link(EventLoop(), rate_bps=0.0, delay_s=0.0)
    with pytest.raises(ValueError):
        Link(EventLoop(), rate_bps=1.0, delay_s=-1.0)


def test_link_tap_sees_ingress_time():
    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.1)
    link.deliver = lambda p: None
    seen = []
    link.tap(lambda p, t: seen.append((p.seq, t)))
    loop.schedule(1.0, lambda: link.send(make_packet(seq=7)))
    loop.run()
    assert seen == [(7, 1.0)]


def test_link_untap():
    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.0)
    link.deliver = lambda p: None
    seen = []
    obs = lambda p, t: seen.append(p.seq)
    link.tap(obs)
    link.send(make_packet(seq=1))
    link.untap(obs)
    link.send(make_packet(seq=2))
    loop.run()
    assert seen == [1]


def test_link_without_sink_raises():
    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.0)
    link.send(make_packet())
    with pytest.raises(RuntimeError):
        loop.run()


def test_link_counters():
    loop = EventLoop()
    link = Link(loop, rate_bps=8e6, delay_s=0.0)
    link.deliver = lambda p: None
    pkt = make_packet(nbytes=100)
    link.send(pkt)
    loop.run()
    assert link.packets_carried == 1
    assert link.bytes_carried == pkt.wire_bytes


def test_utilization_counts_only_completed_transmission():
    # Regression: utilization divided *all* bytes ever enqueued by
    # elapsed time, counting bytes still queued/being serialized, so a
    # deep backlog reported utilization > 1.0.
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0)  # 1000 B/s
    link.deliver = lambda p: None
    # Two packets of 1 s serialization each, both enqueued at t=0.
    link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=0))
    link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=1))
    loop.run_until(1.0)
    # At t=1 only the first packet has finished serializing; the old
    # code reported 2000 B * 8 / 8000 / 1 s = 2.0 here.
    assert link.utilization_until_now() == pytest.approx(1.0)
    loop.run_until(4.0)
    # Busy 2 s out of 4 s elapsed.
    assert link.utilization_until_now() == pytest.approx(0.5)


def test_utilization_is_clamped_and_zero_at_start():
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0)
    link.deliver = lambda p: None
    # Regression: at now == _busy_until == 0 the old truthiness guard
    # (`if busy`) took the wrong branch; enqueue at t=0 and ask
    # immediately — before any time has elapsed there is no utilization.
    link.send(make_packet(nbytes=1000 - HEADER_BYTES))
    assert link.utilization_until_now() == 0.0
    loop.run()
    assert 0.0 <= link.utilization_until_now() <= 1.0


def test_queue_delay_now_reflects_backlog():
    loop = EventLoop()
    link = Link(loop, rate_bps=8_000.0, delay_s=0.0)
    link.deliver = lambda p: None
    link.send(make_packet(nbytes=1000 - HEADER_BYTES))
    assert link.queue_delay_now == pytest.approx(1.0)


class TestTokenBucketShaper:
    def test_burst_passes_then_paces(self):
        loop = EventLoop()
        shaper = TokenBucketShaper(rate_bps=8_000.0, bucket_bytes=1000)
        link = Link(loop, rate_bps=8e9, delay_s=0.0, shaper=shaper)
        arrivals = []
        link.deliver = lambda p: arrivals.append(loop.now)
        # First 1000-wire-byte packet passes immediately (bucket full);
        # second must wait for tokens at 1000 B/s.
        link.send(make_packet(nbytes=1000 - HEADER_BYTES))
        link.send(make_packet(nbytes=1000 - HEADER_BYTES))
        loop.run()
        assert arrivals[0] == pytest.approx(0.0, abs=1e-5)
        assert arrivals[1] == pytest.approx(1.0, rel=1e-3)

    def test_long_run_rate_limited(self):
        loop = EventLoop()
        rate = 1_000_000.0  # 1 Mbps
        shaper = TokenBucketShaper(rate_bps=rate, bucket_bytes=10_000)
        link = Link(loop, rate_bps=1e9, delay_s=0.0, shaper=shaper)
        arrivals = []
        link.deliver = lambda p: arrivals.append(loop.now)
        total_wire = 0
        for i in range(200):
            pkt = make_packet(nbytes=1200, seq=i)
            total_wire += pkt.wire_bytes
            link.send(pkt)
        loop.run()
        elapsed = arrivals[-1]
        effective_bps = total_wire * 8.0 / elapsed
        # Within 15% of the shaped rate (bucket burst inflates it slightly).
        assert effective_bps == pytest.approx(rate, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucketShaper(rate_bps=0, bucket_bytes=100)
        with pytest.raises(ValueError):
            TokenBucketShaper(rate_bps=100, bucket_bytes=0)


class TestDeferralGapAccounting:
    """Regression: a shaper/impairment-deferred start used to inflate
    ``_busy_until`` silently, so (a) the *next* packet's wait across the
    idle gap was charged to ``link.queue`` instead of ``link.throttle``
    in the causes ledger, and (b) ``utilization_until_now`` counted the
    idle gap as pending transmission work, undercounting completed busy
    time."""

    def make_throttled_link(self, loop):
        # Wire 1000 B/s; shaper 100 B/s with a 100-byte bucket, so each
        # 100-wire-byte packet after the first waits ~0.9 s on tokens.
        return Link(
            loop, rate_bps=8_000.0, delay_s=0.0,
            shaper=TokenBucketShaper(rate_bps=800.0, bucket_bytes=100),
        )

    def send_three(self, loop, link):
        for seq in range(3):
            link.send(make_packet(nbytes=100 - HEADER_BYTES, seq=seq))

    def test_gap_not_charged_to_queue(self):
        from repro import obs

        obs.deactivate()
        obs.ensure_active(causes=True)
        try:
            loop = EventLoop()
            link = self.make_throttled_link(loop)
            link.deliver = lambda p: None
            self.send_three(loop, link)
            totals = obs.active().causes.totals()
        finally:
            obs.deactivate()
        # p1: starts at 0 (full bucket), tx 0.1 s.  p2: queue-waits until
        # 0.1, then throttles until 1.0, tx to 1.1.  p3: queue-waits
        # until 1.1, throttles until 2.0.  Queue seconds are the two
        # serialization tails (0.1 each); the 2 x 0.9 s token waits are
        # throttle.  The old code charged p3's wait across p2's idle
        # throttle gap (0.9 s) to link.queue as well.
        assert totals["link.throttle"] == pytest.approx(1.8)
        assert totals["link.queue"] == pytest.approx(0.2)

    def test_utilization_excludes_idle_gap(self):
        loop = EventLoop()
        link = self.make_throttled_link(loop)
        link.deliver = lambda p: None
        self.send_three(loop, link)
        # Horizon: tx [0, 0.1], idle gap (0.1, 1.0), tx [1.0, 1.1], idle
        # gap (1.1, 2.0), tx [2.0, 2.1].
        loop.run_until(1.1)
        # Completed transmission by 1.1 s: 0.2 s of actual wire time.
        # The old code computed pending = busy_until - now = 1.0 s
        # (including the 0.9 s idle gap), clamping utilization to 0.
        assert link.utilization_until_now() == pytest.approx(0.2 / 1.1)
        loop.run_until(2.1)
        assert link.utilization_until_now() == pytest.approx(0.3 / 2.1)

    def test_unshaped_link_accounting_unchanged(self):
        loop = EventLoop()
        link = Link(loop, rate_bps=8_000.0, delay_s=0.0)
        link.deliver = lambda p: None
        link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=0))
        link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=1))
        # Back-to-back transmissions keep the wire busy 0-2 s.
        loop.run_until(1.5)
        assert link.utilization_until_now() == pytest.approx(1.0)
        loop.run_until(4.0)
        assert link.utilization_until_now() == pytest.approx(2.0 / 4.0)
        assert not link._gaps


def scan_pending_tx_time(gaps, busy_until, now):
    """The oracle for ``Link._pending_tx_time``: the busy horizon less
    every queued gap's overlap with ``[now, busy_until)``, one gap at a
    time, without touching the link."""
    pending = busy_until - now
    if pending <= 0.0:
        return 0.0
    for gap_start, gap_end in gaps:
        overlap = min(gap_end, busy_until) - max(gap_start, now)
        if overlap > 0.0:
            pending -= overlap
    return max(0.0, pending)


class TestPendingTxTimeAccounting:
    """``_pending_tx_time`` keeps a running sum of the queued gaps instead
    of rescanning them; it must agree with the scan on every call."""

    @staticmethod
    def make_faulted_link(rng_seed):
        impairment = LinkImpairment(
            random.Random(rng_seed),
            loss=LossSpec(model="gilbert", p_good_to_bad=0.05,
                          p_bad_to_good=0.3, bad_loss=0.5, recovery_s=0.03),
            jitter_s=0.002,
            flaps=FlapSchedule([(0.1, 0.25), (0.6, 0.9), (1.5, 1.6)]),
        )
        return Link(
            EventLoop(), rate_bps=4e6, delay_s=0.01,
            shaper=TokenBucketShaper(rate_bps=1e6, bucket_bytes=4000),
            impairment=impairment,
        )

    @given(
        rng_seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.floats(0.0, 0.03), st.integers(40, 1500)),
            min_size=1, max_size=150,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_gap_scan_after_every_admission(self, rng_seed, steps):
        link = self.make_faulted_link(rng_seed)
        now = 0.0
        for dt, wire_bytes in steps:
            now += dt
            link._admit(wire_bytes, now)
            expected = scan_pending_tx_time(
                list(link._gaps), link._busy_until, now)
            assert link._pending_tx_time(now) == pytest.approx(
                expected, rel=0.0, abs=1e-9)
        idle_at = link._busy_until + 1.0
        assert link._pending_tx_time(idle_at) == 0.0
        assert not link._gaps
        assert link._gap_total == 0.0

    def test_gap_total_tracks_the_queued_gaps(self):
        link = self.make_faulted_link(7)
        for _ in range(20):  # a burst: every packet past the bucket waits
            link._admit(1500, 0.05)
        assert len(link._gaps) > 2
        assert link._gap_total == pytest.approx(
            sum(end - start for start, end in link._gaps))


class TestLinkInstruments:
    """The per-packet series are resolved once per link and registry."""

    @staticmethod
    def send_burst(link, count):
        for seq in range(count):
            link.send(make_packet(nbytes=1000 - HEADER_BYTES, seq=seq))

    def test_successive_sessions_record_into_their_own_registry(self):
        loop = EventLoop()
        link = Link(
            loop, rate_bps=8_000.0, delay_s=0.0, name="uplink",
            shaper=TokenBucketShaper(rate_bps=4_000.0, bucket_bytes=1000),
            impairment=LinkImpairment(random.Random(3), jitter_s=0.01),
        )
        link.deliver = lambda p: None
        with obs.session(metrics=True, tracing=False,
                         profiling=False) as first:
            self.send_burst(link, 2)
        with obs.session(metrics=True, tracing=False,
                         profiling=False) as second:
            self.send_burst(link, 3)
        loop.run()
        for telemetry, packets in ((first, 2), (second, 3)):
            metrics = telemetry.metrics
            assert metrics.get("netsim_link_packets_total",
                               link="uplink").value == packets
            assert metrics.get("netsim_link_bytes_total",
                               link="uplink").value == 1000 * packets
            assert metrics.get("netsim_link_queue_delay_seconds",
                               link="uplink").count == packets
            # Resolved at their first event in each registry.
            assert metrics.get("netsim_link_throttle_seconds_total",
                               link="uplink").value > 0.0
            assert metrics.get("netsim_link_impairment_seconds_total",
                               link="uplink").value > 0.0

    def test_disabled_telemetry_records_nothing(self):
        obs.deactivate()
        loop = EventLoop()
        link = Link(loop, rate_bps=8_000.0, delay_s=0.0, name="quiet")
        link.deliver = lambda p: None
        self.send_burst(link, 3)
        loop.run()
        assert link._instrumented is None
        assert obs.active().metrics.get("netsim_link_packets_total",
                                        link="quiet") is None
        with obs.session(metrics=False, tracing=False, profiling=False,
                         health=True) as telemetry:
            self.send_burst(link, 1)
        assert link._instrumented is None
        assert telemetry.metrics.families() == []

    def test_unshaped_unimpaired_link_creates_no_throttle_series(self):
        with obs.session(metrics=True, tracing=False,
                         profiling=False) as telemetry:
            loop = EventLoop()
            plain = Link(loop, rate_bps=8_000.0, delay_s=0.0, name="plain")
            shaped = Link(
                loop, rate_bps=8_000.0, delay_s=0.0, name="shaped",
                shaper=TokenBucketShaper(rate_bps=800.0, bucket_bytes=1000),
            )
            for link in (plain, shaped):
                link.deliver = lambda p: None
                self.send_burst(link, 3)
            loop.run()
        metrics = telemetry.metrics
        assert metrics.get("netsim_link_packets_total",
                           link="plain").value == 3
        assert metrics.get("netsim_link_throttle_seconds_total",
                           link="plain") is None
        assert metrics.get("netsim_link_impairment_seconds_total",
                           link="plain") is None
        assert metrics.get("netsim_link_throttle_seconds_total",
                           link="shaped").value > 0.0


class TestUtilizationHealthCheck:
    def send_at_one_second(self, link, loop):
        loop.run_until(1.0)
        link.send(make_packet(nbytes=1000 - HEADER_BYTES))

    def test_passing_check_keeps_no_sample(self):
        with obs.session(metrics=False, tracing=False, profiling=False,
                         health=True) as telemetry:
            loop = EventLoop()
            link = Link(loop, rate_bps=8_000.0, delay_s=0.0, name="wan")
            link.deliver = lambda p: None
            self.send_at_one_second(link, loop)
        assert telemetry.health.checks_total == 1
        assert telemetry.health.ok()
        assert telemetry.health.samples == []

    def test_forced_violation_names_the_link(self):
        with obs.session(metrics=False, tracing=False, profiling=False,
                         health=True) as telemetry:
            loop = EventLoop()
            link = Link(loop, rate_bps=8_000.0, delay_s=0.0, name="wan")
            link.deliver = lambda p: None
            link._busy_time_scheduled = 5.0  # more busy time than elapsed
            self.send_at_one_second(link, loop)
        assert telemetry.health.checks_total == 1
        assert telemetry.health.violations == {"link.utilization_bounded": 1}
        assert telemetry.health.samples == [
            "link.utilization_bounded: wan: 5.000s busy in 1.000s elapsed"
        ]
