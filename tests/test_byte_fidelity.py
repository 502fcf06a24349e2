"""Byte-fidelity end-to-end: real bytes over the wire, real dissection.

Sessions send sizes only.  These tests serialize the frames a delivery
path produces themselves, the way ``examples/video_quality_inspection.py``
does, send the bytes over a connection with capture on, and verify that
the capture-side parsers (the wireshark/libav stand-ins) recover the
exact media — the strongest cross-check between the producing and
measuring halves of the reproduction.
"""

import random

import pytest

from repro.capture.inspector import inspect_frames
from repro.capture.reconstruct import reassemble_flows
from repro.media.frames import AudioFrame, EncodedFrame
from repro.netsim.connection import Connection, Message
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.netsim.trace import TraceCapture
from repro.protocols import mpegts, rtmp
from repro.service.broadcast import sample_broadcast
from repro.service.delivery import HlsOrigin, LiveSourceDriver, RtmpDelivery
from repro.service.geo import POPULATION_CENTERS, GeoPoint
from repro.protocols.http import HttpRequest
from repro.util.units import MBPS


def make_broadcast(seed=11):
    b = sample_broadcast(random.Random(seed), 0.0, GeoPoint(48.9, 2.3),
                         POPULATION_CENTERS[9])
    b.mean_viewers = 20.0
    b.duration_s = 3600.0
    return b


class BytePush:
    """Pushes each frame as its real chunked RTMP bytes."""

    def __init__(self, conn):
        self.conn = conn

    def push_frame(self, frame):
        if isinstance(frame, EncodedFrame):
            message = rtmp.video_message(frame)
        else:
            message = rtmp.audio_message(frame)
        data = rtmp.chunk_message(message)
        return self.conn.send(Message(payload=frame, nbytes=len(data), data=data,
                                      annotations={"protocol": "rtmp"}))


class TestRtmpByteFidelity:
    def _run(self, watch=10.0):
        loop = EventLoop()
        net = Network(loop)
        server, phone = net.host("ingest"), net.host("phone")
        net.duplex(server, phone, rate_bps=50 * MBPS, delay_s=0.02)
        capture = TraceCapture(capture_payload=True)
        capture.tap_link(net.link_between(server, phone), "down")
        fwd, rev = net.duplex_paths("ingest", "phone")
        received = []
        conn = Connection(loop, fwd, rev,
                          on_message=lambda m, t: received.append(m.payload))
        driver = LiveSourceDriver(loop, make_broadcast(), age_at_join=5.0,
                                  horizon_s=watch, generate_from=2.0)
        delivery = RtmpDelivery(BytePush(conn), driver)
        driver.start()
        delivery.start()
        loop.run_until(watch)
        return capture, received

    def test_chunk_stream_reconstructs_from_capture(self):
        capture, received = self._run()
        (stream,) = reassemble_flows(capture).values()
        stream_bytes = stream.data
        assert stream_bytes
        parser = rtmp.ChunkParser()
        messages = parser.feed(stream_bytes)
        media = [rtmp.media_frame_of(m) for m in messages
                 if m.msg_type in (rtmp.RtmpMessageType.AUDIO,
                                   rtmp.RtmpMessageType.VIDEO)]
        sent_video = [f for f in received if isinstance(f, EncodedFrame)]
        got_video = [f for f in media if isinstance(f, EncodedFrame)]
        # Capture may trail the app by in-flight packets; compare prefix.
        assert len(got_video) >= len(sent_video)
        for got, sent in zip(got_video, sent_video):
            assert got.nbytes == sent.nbytes
            assert got.frame_type == sent.frame_type
            assert got.pts == pytest.approx(sent.pts)

    def test_dissected_media_inspectable(self):
        capture, _ = self._run(watch=12.0)
        (stream,) = reassemble_flows(capture).values()
        stream_bytes = stream.data
        parser = rtmp.ChunkParser()
        frames = [rtmp.media_frame_of(m) for m in parser.feed(stream_bytes)
                  if m.msg_type in (rtmp.RtmpMessageType.AUDIO,
                                    rtmp.RtmpMessageType.VIDEO)]
        video = [f for f in frames if isinstance(f, EncodedFrame)]
        audio = [f for f in frames if isinstance(f, AudioFrame)]
        report = inspect_frames(video, audio)
        assert 100e3 < report.video_bitrate_bps < 1.5e6
        assert report.gop_kind in ("IBP", "IP", "I")
        assert report.n_audio_frames == len(audio)


class TestHlsByteFidelity:
    def test_served_segments_demux_cleanly(self):
        loop = EventLoop()
        driver = LiveSourceDriver(loop, make_broadcast(seed=12), age_at_join=30.0,
                                  horizon_s=10.0, generate_from=14.0)
        origin = HlsOrigin(loop, driver)
        driver.start()
        origin.start()
        loop.run_until(10.0)
        playlist = origin.window.playlist()
        assert playlist.entries

        wire = EventLoop()
        net = Network(wire)
        cdn, phone = net.host("cdn"), net.host("phone")
        net.duplex(cdn, phone, rate_bps=50 * MBPS, delay_s=0.02)
        capture = TraceCapture(capture_payload=True)
        capture.tap_link(net.link_between(cdn, phone), "down")
        conn = Connection(wire, *net.duplex_paths("cdn", "phone"))
        sent = []
        for entry in playlist.entries:
            segment = origin.handle(HttpRequest("GET", f"/{entry.uri}"), "c").payload
            data = mpegts.mux_segment(segment.video_frames, segment.audio_frames)
            conn.send(Message(payload=segment, nbytes=len(data), data=data))
            sent.append((segment, data))
        wire.run()

        (stream,) = reassemble_flows(capture).values()
        assert stream.data == b"".join(data for _, data in sent)
        offset = 0
        for segment, data in sent:
            result = mpegts.demux_segment(stream.data[offset:offset + len(data)])
            offset += len(data)
            assert result.continuity_errors == 0
            assert len(result.video_frames) == len(segment.video_frames)
            # Byte sizes on the wire match the segment's media payload.
            media_bytes = sum(f.nbytes for f in result.video_frames) + sum(
                a.nbytes for a in result.audio_frames
            )
            assert len(data) > media_bytes  # container overhead
            assert len(data) < media_bytes * 1.35
