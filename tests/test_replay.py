"""Tests for replay (VOD) serving and playback — "Video on (not live)" —
and the golden-trace replay fixture for a faulted session."""

import hashlib
import json
import pathlib
import random

import pytest

from repro.netsim.duplex import DuplexStream
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.player.hls_player import HlsPlayer
from repro.protocols.http import HttpClient, HttpRequest, HttpServer, HttpStatus
from repro.service.broadcast import sample_broadcast
from repro.service.delivery import ReplayOrigin
from repro.service.geo import POPULATION_CENTERS, GeoPoint
from repro.util.units import MBPS


def replayable_broadcast(seed=21):
    b = sample_broadcast(random.Random(seed), 0.0, GeoPoint(51.5, -0.1),
                         POPULATION_CENTERS[8])
    b.available_for_replay = True
    b.mean_viewers = 10.0
    return b


class TestReplayOrigin:
    def test_playlist_is_ended_with_all_segments(self):
        origin = ReplayOrigin(replayable_broadcast(), duration_s=30.0)
        playlist = origin.window.playlist()
        assert playlist.ended
        assert len(playlist.entries) == origin.segment_count
        assert origin.segment_count >= 5

    def test_segments_servable(self):
        origin = ReplayOrigin(replayable_broadcast(), duration_s=20.0)
        playlist = origin.handle(HttpRequest("GET", "/b/playlist.m3u8"), "c").payload
        for entry in playlist.entries:
            resp = origin.handle(HttpRequest("GET", f"/{entry.uri}"), "c")
            assert resp.status == HttpStatus.OK
            assert resp.payload.video_frames

    def test_unreplayable_broadcast_rejected(self):
        b = replayable_broadcast()
        b.available_for_replay = False
        with pytest.raises(ValueError):
            ReplayOrigin(b, duration_s=10.0)

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            ReplayOrigin(replayable_broadcast(), duration_s=0.0)

    def test_unknown_segment_404(self):
        origin = ReplayOrigin(replayable_broadcast(), duration_s=10.0)
        assert origin.handle(HttpRequest("GET", "/nope.ts"), "c").status == \
            HttpStatus.NOT_FOUND


class TestReplayPlayback:
    def test_vod_player_plays_from_the_start(self):
        loop = EventLoop()
        net = Network(loop)
        phone, cdn = net.host("phone"), net.host("cdn")
        net.duplex(phone, cdn, rate_bps=20 * MBPS, delay_s=0.02)
        origin = ReplayOrigin(replayable_broadcast(seed=22), duration_s=60.0)
        streams = [DuplexStream(loop, net, "phone", "cdn", name=f"s{i}")
                   for i in range(2)]
        for stream in streams:
            HttpServer(loop, stream, origin.handle)
        player = HlsPlayer(
            loop,
            playlist_client=HttpClient(loop, streams[0]),
            segment_client=HttpClient(loop, streams[1]),
            playlist_path="/replay/playlist.m3u8",
            broadcast_start=0.0,
            vod=True,
        )
        player.start()
        loop.run_until(30.0)
        report = player.finalize(30.0)
        assert report.started
        assert report.playback_s > 20.0
        # VOD starts at the beginning of the recording.
        first = min(s.start_pts for s in player.segments_fetched)
        assert first == pytest.approx(0.0, abs=0.5)
        # Prefetching runs ahead of the playhead (no live window limit).
        fetched_media = sum(s.duration_s for s in player.segments_fetched)
        assert fetched_media > report.playback_s


# --------------------------------------------------- golden faulted trace

GOLDEN_PATH = pathlib.Path(__file__).parent / "fixtures" / \
    "faulted_session_trace.json"
GOLDEN_SEED = 77
GOLDEN_FAULTS = "loss=0.02,jitter=0.005,flap=0.01:0.5:2,ingest=0.03:1:2,api5xx=0.1"


def _run_golden_session():
    """Run the golden faulted session; returns its tether capture."""
    from repro.automation.devices import GALAXY_S4
    from repro.core.session import SessionSetup
    from repro.faults import FaultPlan
    from repro.service.selection import DeliveryProtocol

    from test_core_session import make_broadcast, run_captured

    setup = SessionSetup(
        broadcast=make_broadcast(seed=GOLDEN_SEED),
        age_at_join=600.0,
        protocol=DeliveryProtocol.RTMP,
        device=GALAXY_S4,
        watch_seconds=20.0,
        seed=GOLDEN_SEED,
        faults=FaultPlan.parse(GOLDEN_FAULTS),
    )
    return run_captured(setup)[1]


def _canonical_trace(capture):
    """Render the capture as stable text lines.

    Flow and message ids come from process-global counters, so they are
    normalized to first-appearance indices; ``_``-prefixed annotations
    carry live objects and are skipped.
    """
    flow_index = {}
    message_index = {}
    lines = []
    for record in capture.records:
        flow = flow_index.setdefault(record.flow_id, len(flow_index))
        if record.message_id < 0:
            message = -1
        else:
            message = message_index.setdefault(
                record.message_id, len(message_index)
            )
        annotations = ",".join(
            f"{key}={value!r}"
            for key, value in record.annotations
            if not key.startswith("_")
            and isinstance(value, (str, int, float, bool, type(None)))
        )
        lines.append(
            f"{record.timestamp:.9f} {record.direction} flow={flow} "
            f"seq={record.seq} bytes={record.payload_bytes}/{record.wire_bytes} "
            f"ack={int(record.is_ack)} "
            f"msg={message}:{record.message_offset}:{record.message_total} "
            f"[{annotations}]"
        )
    return lines


def _trace_summary(lines):
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return {
        "packet_count": len(lines),
        "sha256": digest,
        "head": lines[:5],
        "tail": lines[-5:],
    }


@pytest.mark.parametrize("network_path", ["fast", "exact"])
def test_golden_faulted_trace_replays_byte_exact(network_path):
    """One faulted session replayed against a stored golden trace: any
    drift in fault sampling, event ordering, or packetization shows up
    as a digest mismatch.  Runs under both the segment-granularity fast
    path and the exact per-packet path — the same fixture must match
    either way.  Regenerate (after an *intended* change) with
    ``PYTHONPATH=src python tests/test_replay.py``."""
    from repro.netsim import fastpath

    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if network_path == "exact":
        with fastpath.exact_network():
            capture = _run_golden_session()
    else:
        capture = _run_golden_session()
    summary = _trace_summary(_canonical_trace(capture))
    assert summary["packet_count"] == expected["packet_count"]
    assert summary["head"] == expected["head"]
    assert summary["tail"] == expected["tail"]
    assert summary["sha256"] == expected["sha256"]


if __name__ == "__main__":  # regenerate the golden fixture
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    regenerated = _trace_summary(_canonical_trace(_run_golden_session()))
    GOLDEN_PATH.write_text(json.dumps(regenerated, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({regenerated['packet_count']} packets, "
          f"sha256={regenerated['sha256'][:12]}...)")
