"""Tests for RTMP chunking and the push-session glue."""

import pytest

from repro.media.frames import AudioFrame, EncodedFrame
from repro.netsim.connection import Connection
from repro.netsim.events import EventLoop
from repro.netsim.topology import Network
from repro.protocols import rtmp
from repro.util.units import MBPS


def vframe(**overrides):
    defaults = dict(index=0, pts=0.2, dts=0.2, frame_type="P", nbytes=900,
                    qp=31.0, complexity=1.0)
    defaults.update(overrides)
    return EncodedFrame(**defaults)


class TestChunking:
    def test_small_message_single_chunk(self):
        msg = rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 100, b"x" * 50)
        data = rtmp.chunk_message(msg)
        assert len(data) == 12 + 50

    def test_large_message_has_continuations(self):
        payload = b"y" * 10_000
        msg = rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 0, payload)
        data = rtmp.chunk_message(msg, chunk_size=4096)
        # 12-byte fmt0 header + 2 single-byte fmt3 headers.
        assert len(data) == 12 + 10_000 + 2

    def test_parser_roundtrip(self):
        msg = rtmp.RtmpMessage(rtmp.RtmpMessageType.AUDIO, 777, b"z" * 9000)
        parser = rtmp.ChunkParser(chunk_size=4096)
        out = parser.feed(rtmp.chunk_message(msg, chunk_size=4096))
        assert len(out) == 1
        assert out[0].msg_type == rtmp.RtmpMessageType.AUDIO
        assert out[0].timestamp_ms == 777
        assert out[0].payload == msg.payload
        assert parser.pending_bytes == 0

    def test_parser_incremental_feed(self):
        msg = rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 5, b"a" * 5000)
        data = rtmp.chunk_message(msg)
        parser = rtmp.ChunkParser()
        out = []
        for i in range(0, len(data), 100):
            out.extend(parser.feed(data[i : i + 100]))
        assert len(out) == 1
        assert out[0].payload == msg.payload

    def test_interleaved_chunk_streams(self):
        video = rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 1, b"v" * 6000,
                                 chunk_stream_id=4)
        audio = rtmp.RtmpMessage(rtmp.RtmpMessageType.AUDIO, 2, b"a" * 100,
                                 chunk_stream_id=5)
        vdata = rtmp.chunk_message(video, chunk_size=4096)
        adata = rtmp.chunk_message(audio, chunk_size=4096)
        # Interleave: first video chunk, whole audio message, video rest.
        first_video = vdata[: 12 + 4096]
        rest_video = vdata[12 + 4096 :]
        parser = rtmp.ChunkParser(chunk_size=4096)
        out = parser.feed(first_video + adata + rest_video)
        assert [m.msg_type for m in out] == [
            rtmp.RtmpMessageType.AUDIO,
            rtmp.RtmpMessageType.VIDEO,
        ]

    def test_set_chunk_size_honoured(self):
        import struct

        set_size = rtmp.RtmpMessage(
            rtmp.RtmpMessageType.SET_CHUNK_SIZE, 0, struct.pack(">I", 128),
            chunk_stream_id=2,
        )
        big = rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 0, b"q" * 300)
        parser = rtmp.ChunkParser(chunk_size=4096)
        data = rtmp.chunk_message(set_size, chunk_size=4096) + rtmp.chunk_message(
            big, chunk_size=128
        )
        out = parser.feed(data)
        assert len(out) == 2
        assert out[1].payload == b"q" * 300

    def test_many_chunk_message_parses_in_one_feed(self):
        # 1,563 chunks at the spec's default chunk size of 128.
        payload = (bytes(range(256)) * 782)[:200_000]
        msg = rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 0, payload)
        parser = rtmp.ChunkParser(chunk_size=128)
        out = parser.feed(rtmp.chunk_message(msg, chunk_size=128))
        assert [m.payload for m in out] == [payload]
        assert parser.pending_bytes == 0

    def test_short_set_chunk_size_rejected(self):
        set_size = rtmp.RtmpMessage(
            rtmp.RtmpMessageType.SET_CHUNK_SIZE, 0, b"\x00\x80",
            chunk_stream_id=2,
        )
        parser = rtmp.ChunkParser()
        with pytest.raises(ValueError):
            parser.feed(rtmp.chunk_message(set_size))

    @pytest.mark.parametrize("size", [0, 0x80000000])
    def test_out_of_range_set_chunk_size_rejected(self, size):
        import struct

        set_size = rtmp.RtmpMessage(
            rtmp.RtmpMessageType.SET_CHUNK_SIZE, 0, struct.pack(">I", size),
            chunk_stream_id=2,
        )
        follow = rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 0, b"q" * 3000)
        # A message header, then bare continuation headers: empty chunks
        # to a parser that accepted a chunk size of 0.
        empty_chunks = (rtmp.chunk_message(follow)[:12]
                        + bytes([(3 << 6) | follow.chunk_stream_id]) * 2000)
        parser = rtmp.ChunkParser()
        with pytest.raises(ValueError):
            parser.feed(rtmp.chunk_message(set_size) + empty_chunks)

    def test_unknown_format3_rejected(self):
        parser = rtmp.ChunkParser()
        with pytest.raises(ValueError):
            parser.feed(bytes([(3 << 6) | 9]) + b"xx")

    def test_message_validation(self):
        with pytest.raises(ValueError):
            rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, -1, b"")
        with pytest.raises(ValueError):
            rtmp.RtmpMessage(rtmp.RtmpMessageType.VIDEO, 0, b"", chunk_stream_id=64)


class TestMediaMessages:
    def test_video_message_roundtrip(self):
        frame = vframe(frame_type="I", nbytes=1234)
        out = rtmp.media_frame_of(rtmp.video_message(frame))
        assert out.frame_type == "I"
        assert out.nbytes == 1234

    def test_audio_message_roundtrip(self):
        frame = AudioFrame(index=0, pts=3.0, nbytes=77)
        out = rtmp.media_frame_of(rtmp.audio_message(frame))
        assert out.nbytes == 77

    def test_media_frame_of_rejects_commands(self):
        msg = rtmp.RtmpMessage(rtmp.RtmpMessageType.COMMAND_AMF0, 0, b"connect")
        with pytest.raises(ValueError):
            rtmp.media_frame_of(msg)


class TestPushSession:
    def _session(self):
        loop = EventLoop()
        net = Network(loop)
        server, phone = net.host("ingest"), net.host("phone")
        net.duplex(server, phone, rate_bps=20 * MBPS, delay_s=0.02)
        fwd, rev = net.duplex_paths("ingest", "phone")
        received = []

        def receive(message, now):
            # The client end: unwrap each arriving media frame.
            if message.annotations.get("protocol") == "rtmp":
                received.append((message.payload, now))

        conn = Connection(loop, fwd, rev, on_message=receive)
        return loop, rtmp.RtmpPushSession(conn), received

    def test_frames_arrive_promptly(self):
        loop, session, received = self._session()
        loop.schedule(1.0, lambda: session.push_frame(vframe()))
        loop.run()
        assert len(received) == 1
        frame, t = received[0]
        assert frame.frame_type == "P"
        # Push latency: ~20 ms propagation + tiny serialization.
        assert 0.02 < t - 1.0 < 0.05

    def test_byte_fidelity_frames_carry_chunked_bytes(self):
        """Each frame goes out at the size of its real chunked encoding,
        across the chunk-size boundaries."""
        _, session, _ = self._session()
        frames = [
            vframe(nbytes=nbytes, ntp_timestamp=ntp)
            for nbytes in [1, 900, 8191, 8192, 8193, 50_000] + list(range(4040, 4110))
            for ntp in (None, 12.5)
        ] + [AudioFrame(index=0, pts=0.0, nbytes=nbytes)
             for nbytes in (8, 90, 4070, 4080, 4090, 9000)]
        for frame in frames:
            if isinstance(frame, EncodedFrame):
                encoded = rtmp.chunk_message(rtmp.video_message(frame))
            else:
                encoded = rtmp.chunk_message(rtmp.audio_message(frame))
            assert session.push_frame(frame).nbytes == len(encoded)

    def test_session_counters(self):
        loop, session, received = self._session()
        session.push_frame(vframe())
        session.push_frame(AudioFrame(index=0, pts=0.0, nbytes=90))
        loop.run()
        assert session.frames_pushed == 2
        assert session.bytes_pushed > 0
        assert len(received) == 2
