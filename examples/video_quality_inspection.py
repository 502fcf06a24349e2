#!/usr/bin/env python3
"""The byte-fidelity capture pipeline, end to end.

Encodes a broadcast, packages it into *real* MPEG-TS segments, serves
one over the simulated network with packet capture on the tether,
reassembles the TCP stream from the capture (wireshark's "follow TCP
stream"), demuxes the TS bytes and inspects the elementary stream — the
exact toolchain of Section 2 (tcpdump -> wireshark -> libav).

Run:  python examples/video_quality_inspection.py
"""

import random

from repro.capture.inspector import inspect_frames
from repro.capture.reconstruct import reassemble_flows
from repro.media.audio import AacEncoderModel
from repro.media.content import CONTENT_PROFILES, ContentProcess
from repro.media.encoder import EncoderSettings, VideoEncoder
from repro.media.segmenter import HlsSegmenter
from repro.netsim.connection import Connection, Message
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.netsim.trace import TraceCapture
from repro.protocols import mpegts
from repro.util.units import MBPS, format_bitrate


def main() -> None:
    print("1. encode 12 s of a sports broadcast (AVC model, 300 kbps target)")
    settings = EncoderSettings(target_bps=300_000.0)
    content = ContentProcess(CONTENT_PROFILES["sports_tv"], random.Random(1))
    video = VideoEncoder(settings, content, random.Random(2)).encode_all(12.0)
    audio = AacEncoderModel(random.Random(3), nominal_bps=64_000.0).encode_all(12.0)
    print(f"   {len(video)} video frames, {len(audio)} audio frames")

    print("2. package into MPEG-TS segments (PAT/PMT/PES, 188-byte packets)")
    segment = next(iter(HlsSegmenter().segment(video, audio)))
    ts_bytes = mpegts.mux_segment(segment.video_frames, segment.audio_frames)
    print(f"   segment of {segment.duration_s:.1f} s -> {len(ts_bytes)} TS bytes "
          f"({len(ts_bytes) // mpegts.TS_PACKET_SIZE} packets)")

    print("3. ship it over the simulated network with tcpdump on the tether")
    loop = EventLoop()
    net = Network(loop)
    cdn, desktop, phone = net.host("cdn"), net.host("desktop"), net.host("phone")
    net.duplex(cdn, desktop, rate_bps=100 * MBPS, delay_s=0.02)
    net.duplex(desktop, phone, rate_bps=50 * MBPS, delay_s=0.001)
    capture = TraceCapture(capture_payload=True)
    capture.tap_link(net.link_between(desktop, phone), "down")
    fwd, rev = net.duplex_paths("cdn", "desktop", "phone")
    conn = Connection(loop, fwd, rev, on_message=lambda m, t: None)
    conn.send(Message(payload=None, nbytes=len(ts_bytes), data=ts_bytes,
                      annotations={"protocol": "http", "path": "/seg0.ts"}))
    loop.run()
    print(f"   captured {len(capture)} packets, "
          f"{capture.total_bytes(direction='down')} wire bytes")

    print("4. reassemble the TCP stream from the capture")
    (stream,) = reassemble_flows(capture).values()
    reassembled = stream.data
    assert reassembled == ts_bytes, "reassembly must be byte exact"
    print(f"   {len(reassembled)} bytes, byte-exact match")

    print("5. demux the transport stream and inspect the media")
    result = mpegts.demux_segment(reassembled)
    report = inspect_frames(result.video_frames, result.audio_frames)
    print(f"   PMT streams        : { {hex(k): hex(v) for k, v in result.pmt_streams.items()} }")
    print(f"   continuity errors  : {result.continuity_errors}")
    print(f"   video bitrate      : {format_bitrate(report.video_bitrate_bps)}")
    print(f"   audio bitrate      : {format_bitrate(report.audio_bitrate_bps)}")
    print(f"   average QP         : {report.average_qp:.1f}")
    print(f"   frame rate         : {report.average_fps:.1f} fps")
    print(f"   GOP pattern        : {report.gop_kind} "
          f"(I period ~{report.i_frame_period:.0f} frames)")
    print(f"   missing frames     : {report.has_missing_frames}")


if __name__ == "__main__":
    main()
