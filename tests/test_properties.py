"""Property-based tests on core invariants (hypothesis).

These cover the data structures everything else leans on: the event
loop, conservation through the network stack, playout-buffer accounting,
and the binary containers.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.frames import EncodedFrame
from repro.netsim.connection import Connection, Message
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.player.buffer import PlayoutBuffer
from repro.protocols import mpegts, rtmp
from repro.protocols.hls import MediaPlaylist, PlaylistEntry
from repro.util.units import MBPS


# ------------------------------------------------------------- event loop

@given(st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                min_size=1, max_size=40))
def test_event_loop_fires_in_time_order(delays):
    loop = EventLoop()
    fired = []
    for delay in delays:
        loop.schedule(delay, lambda d=delay: fired.append(loop.now))
    loop.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
                min_size=2, max_size=30),
       st.data())
def test_event_loop_cancellation_preserves_others(delays, data):
    loop = EventLoop()
    fired = []
    events = [loop.schedule(d, lambda d=d: fired.append(d)) for d in delays]
    to_cancel = data.draw(st.sets(st.integers(0, len(events) - 1),
                                  max_size=len(events) - 1))
    for index in to_cancel:
        events[index].cancel()
    loop.run()
    expected = sorted(d for i, d in enumerate(delays) if i not in to_cancel)
    assert sorted(fired) == expected


# ----------------------------------------------------------- conservation

@given(st.lists(st.integers(min_value=1, max_value=50_000), min_size=1,
                max_size=15))
@settings(max_examples=30, deadline=None)
def test_connection_conserves_bytes(sizes):
    loop = EventLoop()
    net = Network(loop)
    a, b = net.host("a"), net.host("b")
    net.duplex(a, b, rate_bps=20 * MBPS, delay_s=0.005)
    fwd, rev = net.duplex_paths("a", "b")
    received = []
    conn = Connection(loop, fwd, rev,
                      on_message=lambda m, t: received.append(m.nbytes))
    for size in sizes:
        conn.send(Message(payload=None, nbytes=size))
    loop.run()
    assert received == sizes
    assert conn.bytes_delivered == sum(sizes)
    assert conn.in_flight_bytes == 0
    assert conn.backlog_bytes == 0


# --------------------------------------------------------- playout buffer

@given(st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.01, 10.0)),
                min_size=1, max_size=25),
       st.floats(0.5, 5.0), st.floats(0.2, 3.0))
@settings(max_examples=60, deadline=None)
def test_buffer_accounting_always_sums_to_watch_time(arrivals, start_thr, rebuf_thr):
    """join + playback + stalls == watch duration, whatever arrives."""
    loop = EventLoop()
    buf = PlayoutBuffer(loop, start_threshold_s=start_thr,
                        rebuffer_threshold_s=rebuf_thr, broadcast_start=0.0)
    buf.set_play_origin(0.0)
    frontier = 0.0
    for at, growth in sorted(arrivals):
        frontier += growth
        loop.schedule_at(max(at, loop.now if False else at),
                         lambda f=frontier: buf.on_media(f))
    watch = 60.0
    loop.run_until(watch)
    report = buf.finalize(watch)
    total = report.join_time_s + report.playback_s + report.total_stall_s
    assert total == pytest.approx(watch, abs=1e-6)
    assert all(s.duration >= 0 for s in report.stalls)
    assert report.playback_s >= 0
    assert 0 <= report.join_time_s <= watch


# ------------------------------------------------------------- containers

_frame_strategy = st.builds(
    EncodedFrame,
    index=st.integers(0, 1000),
    pts=st.floats(0.0, 500.0, allow_nan=False),
    dts=st.floats(0.0, 500.0, allow_nan=False),
    frame_type=st.sampled_from(["I", "P", "B"]),
    nbytes=st.integers(1, 20_000),
    qp=st.floats(10.0, 51.0, allow_nan=False),
    complexity=st.just(1.0),
    ntp_timestamp=st.one_of(st.none(), st.floats(0.0, 1e6, allow_nan=False)),
)


@given(st.lists(_frame_strategy, min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_mpegts_roundtrip_property(frames):
    result = mpegts.demux_segment(mpegts.mux_segment(frames))
    assert len(result.video_frames) == len(frames)
    assert result.continuity_errors == 0
    got = sorted((f.nbytes, f.frame_type) for f in result.video_frames)
    want = sorted((f.nbytes, f.frame_type) for f in frames)
    assert got == want


@given(st.binary(min_size=1, max_size=30_000),
       st.integers(128, 8192))
@settings(max_examples=40, deadline=None)
def test_rtmp_chunking_roundtrip_property(payload, chunk_size):
    message = rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 42, payload)
    parser = rtmp.ChunkParser(chunk_size=chunk_size)
    out = parser.feed(rtmp.chunk_message(message, chunk_size=chunk_size))
    assert len(out) == 1
    assert out[0].payload == payload
    assert parser.pending_bytes == 0


@given(st.lists(st.tuples(st.floats(0.5, 10.0), st.integers(0, 10_000)),
                min_size=0, max_size=10),
       st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_m3u8_roundtrip_property(entries, media_sequence):
    playlist = MediaPlaylist(
        target_duration_s=6.0,
        media_sequence=media_sequence,
        entries=[
            PlaylistEntry(uri=f"seg{i}.ts", duration_s=round(d, 3),
                          sequence=media_sequence + i)
            for i, (d, _) in enumerate(entries)
        ],
    )
    parsed = MediaPlaylist.parse(playlist.render())
    assert len(parsed.entries) == len(playlist.entries)
    assert parsed.media_sequence == media_sequence
    for got, want in zip(parsed.entries, playlist.entries):
        assert got.uri == want.uri
        assert got.duration_s == pytest.approx(want.duration_s, abs=1e-3)


#: Replacement bytes: any byte, or one that means something in M3U8.
M3U8_MUTANT_BYTE = st.one_of(st.sampled_from(b"-+._,:#\n0123456789naif"),
                             st.integers(0, 255))


@given(st.lists(st.floats(0.5, 10.0), min_size=1, max_size=6),
       st.integers(0, 5000), st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_m3u8_mutants_raise_or_number_consecutively(durations, media_sequence,
                                                    ended, data):
    """A truncated playlist, or one with 1-3 bytes replaced, either
    raises ``ValueError`` or numbers its entries consecutively from a
    non-negative media sequence, with finite positive durations."""
    playlist = MediaPlaylist(
        target_duration_s=6.0,
        media_sequence=media_sequence,
        entries=[PlaylistEntry(f"seg{i}.ts", round(d, 3), media_sequence + i)
                 for i, d in enumerate(durations)],
        ended=ended,
    )
    mutant = bytearray(playlist.render_bytes())
    anywhere = st.integers(0, len(mutant) - 1)
    # A byte just after a tag's colon can make a number negative or a
    # name such as nan, so the first replaced byte is one of those.
    value_start = st.sampled_from(
        [i + 1 for i, byte in enumerate(mutant) if byte == ord(":")])
    if data.draw(st.booleans()):
        del mutant[data.draw(anywhere):]
    else:
        for flip in range(data.draw(st.integers(1, 3))):
            position = data.draw(anywhere if flip else value_start)
            mutant[position] = data.draw(M3U8_MUTANT_BYTE)
    try:
        # Latin-1 maps every byte to a character, so each mutant reaches
        # the parser rather than failing to decode.
        parsed = MediaPlaylist.parse(mutant.decode("latin-1"))
    except ValueError:
        return
    first = parsed.media_sequence
    assert first >= 0
    assert [e.sequence for e in parsed.entries] == list(
        range(first, first + len(parsed.entries)))
    assert all(math.isfinite(e.duration_s) and e.duration_s > 0
               for e in parsed.entries)
    assert math.isfinite(parsed.target_duration_s)
    assert parsed.target_duration_s >= 0


# ----------------------------------------------------------- rate control

# -------------------------------------------------- seed-sweep invariants

_SWEEP_SEEDS = tuple(range(100, 110))  # 10 seeds
_SWEEP_WATCH_S = 20.0


def _session_invariants(seed, faults):
    """Run one short session and assert the cross-cutting invariants the
    fault subsystem must never break, pristine or faulted."""
    from repro.automation.devices import GALAXY_S4
    from repro.core.session import API_LOCATION, SessionSetup, ViewingSession
    from repro.core.testbed import VIEWER_LOCATION, path_delay_s
    from repro.service.selection import DeliveryProtocol

    from test_core_session import make_broadcast

    protocol = DeliveryProtocol.RTMP if seed % 2 == 0 else DeliveryProtocol.HLS
    setup = SessionSetup(
        broadcast=make_broadcast(seed=seed),
        age_at_join=600.0,
        protocol=protocol,
        device=GALAXY_S4,
        watch_seconds=_SWEEP_WATCH_S,
        seed=seed,
        faults=faults,
    )
    session = ViewingSession(setup)
    # Probe the playout buffer's raw frontier-vs-playhead gap during the
    # run; the clamped public accessor would hide a negative level.
    raw_levels = []

    def probe():
        player = session._player
        if player is not None and player.buffer.buffered_until is not None:
            buf = player.buffer
            raw_levels.append(
                buf.buffered_until - buf._playhead(session.loop.now)
            )
        session.loop.schedule(0.25, probe)

    session.loop.schedule(0.25, probe)
    qoe = session.run().qoe

    # 1. Total stall time never exceeds the session duration.
    assert 0.0 <= qoe.total_stall_s <= _SWEEP_WATCH_S + 1e-9
    assert qoe.consistent()
    # 2. Join time respects the propagation floor: two API round trips
    #    must complete before any media flows (unless the API gave up,
    #    in which case the session never starts and join == watch).
    floor = 4.0 * path_delay_s(API_LOCATION, VIEWER_LOCATION)
    assert qoe.join_time_s >= floor - 1e-9
    # 3. The playout buffer level never goes negative.
    assert all(level >= -1e-9 for level in raw_levels)
    # 4. Retry counts are bounded by the governing policy.
    if faults is None:
        assert qoe.api_retries == 0
        assert qoe.fault_events == []
        assert qoe.disconnects == qoe.reconnects == 0
    else:
        per_call = faults.retry.max_attempts
        assert qoe.api_retries <= 3 * per_call  # three API calls/session
        player = session._player
        assert player.buffer is not None
        reconnect_attempts = getattr(player, "reconnect_attempts", 0)
        assert reconnect_attempts <= (qoe.disconnects + 1) * (per_call + 1)
    return qoe


@pytest.mark.parametrize("seed", _SWEEP_SEEDS)
def test_session_invariants_across_seeds_pristine(seed):
    _session_invariants(seed, faults=None)


@pytest.mark.parametrize("seed", _SWEEP_SEEDS)
def test_session_invariants_across_seeds_faulted(seed):
    from repro.faults import FaultPlan

    plan = FaultPlan.parse(
        "loss=0.02,jitter=0.005,flap=0.01:0.5:2,ingest=0.03:1:2,api5xx=0.1"
    )
    qoe = _session_invariants(seed, faults=plan)
    # The plan must actually be live: across the sweep, *some* seed shows
    # injected fault activity (checked per-seed via the counters' types).
    assert qoe.api_retries >= 0 and qoe.transport_retries >= 0


def test_faulted_sweep_injects_faults_somewhere():
    """At least one seed in the sweep must exhibit each client-visible
    fault effect, or the plan (and the invariants above) test nothing."""
    from repro.faults import FaultPlan

    plan = FaultPlan.parse("loss=0.02,ingest=0.05:1:2,api5xx=0.2")
    saw_retry = saw_disconnect = saw_event = False
    for seed in _SWEEP_SEEDS:
        qoe = _session_invariants(seed, faults=plan)
        saw_retry = saw_retry or qoe.api_retries > 0
        saw_disconnect = saw_disconnect or qoe.disconnects > 0
        saw_event = saw_event or bool(qoe.fault_events)
    assert saw_retry
    assert saw_disconnect
    assert saw_event


# ----------------------------------------------------------- rate control

@given(st.floats(100e3, 2e6), st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_rate_controller_tracks_any_target(target_bps, complexity):
    from repro.media.rate_control import RateController

    rc = RateController(target_bps=target_bps, fps=30.0)
    total_bits = 0.0
    frames = 2400
    for i in range(frames):
        ftype = "I" if i % 36 == 0 else ("B" if i % 2 == 1 else "P")
        total_bits += rc.encode_frame(ftype, complexity)
    achieved = total_bits / (frames / 30.0)
    # Unless QP saturates at a bound, the controller hits the target.
    from repro.media.rate_control import QP_MAX, QP_MIN

    if QP_MIN + 0.5 < rc.qp < QP_MAX - 0.5:
        assert achieved == pytest.approx(target_bps, rel=0.25)
