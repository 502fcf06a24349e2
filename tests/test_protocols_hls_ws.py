"""Tests for M3U8 playlists, the live window, and WebSocket frame sizes."""

import struct

import pytest

from repro.protocols.hls import LiveWindow, MediaPlaylist, PlaylistEntry
from repro.protocols.websocket import chat_message_json, text_frame_size


def encode_frame(payload):
    """Serialize one final, unmasked text frame per RFC 6455 base
    framing, as a server sends it."""
    length = len(payload)
    if length < 126:
        header = bytes([0x81, length])
    elif length < 1 << 16:
        header = bytes([0x81, 126]) + struct.pack(">H", length)
    else:
        header = bytes([0x81, 127]) + struct.pack(">Q", length)
    return header + payload


class TestMediaPlaylist:
    def playlist(self):
        return MediaPlaylist(
            target_duration_s=4.0,
            media_sequence=17,
            entries=[
                PlaylistEntry("seg17.ts", 3.6, 17),
                PlaylistEntry("seg18.ts", 3.6, 18),
                PlaylistEntry("seg19.ts", 4.1, 19),
            ],
        )

    def test_render_contains_required_tags(self):
        text = self.playlist().render()
        assert text.startswith("#EXTM3U")
        assert "#EXT-X-TARGETDURATION:" in text
        assert "#EXT-X-MEDIA-SEQUENCE:17" in text
        assert text.count("#EXTINF:") == 3
        assert "#EXT-X-ENDLIST" not in text

    def test_render_parse_roundtrip(self):
        original = self.playlist()
        parsed = MediaPlaylist.parse(original.render())
        assert parsed.media_sequence == 17
        assert [e.uri for e in parsed.entries] == ["seg17.ts", "seg18.ts", "seg19.ts"]
        assert parsed.entries[2].duration_s == pytest.approx(4.1, abs=1e-3)
        assert [e.sequence for e in parsed.entries] == [17, 18, 19]
        assert not parsed.ended

    def test_target_duration_is_spec_ceiling(self):
        # Regression: render used int(round(target + 0.5)), which
        # inflated whole-number targets (3.0 -> 4) and, via banker's
        # rounding, was parity-dependent for odd ones (2.0 -> 2 but
        # 3.0 -> 4).  The spec wants the ceiling.
        def rendered_target(seconds):
            playlist = MediaPlaylist(target_duration_s=seconds, media_sequence=0)
            tag = [line for line in playlist.render().splitlines()
                   if line.startswith("#EXT-X-TARGETDURATION:")][0]
            return int(tag.split(":", 1)[1])

        assert rendered_target(3.0) == 3
        assert rendered_target(2.0) == 2
        assert rendered_target(4.0) == 4
        assert rendered_target(3.2) == 4
        assert rendered_target(3.9) == 4

    def test_target_duration_roundtrip_stable(self):
        # parse(render()) must be a fixed point for the target duration,
        # both for integer and fractional configured targets.
        for seconds in (2.0, 3.0, 4.0, 3.5, 5.9):
            once = MediaPlaylist.parse(
                MediaPlaylist(target_duration_s=seconds, media_sequence=0).render()
            )
            twice = MediaPlaylist.parse(once.render())
            assert twice.target_duration_s == once.target_duration_s
            assert once.render() == twice.render()

    def test_ended_playlist(self):
        playlist = self.playlist()
        playlist.ended = True
        assert MediaPlaylist.parse(playlist.render()).ended

    def test_parse_rejects_non_m3u8(self):
        with pytest.raises(ValueError):
            MediaPlaylist.parse("hello world")

    def test_parse_rejects_uri_without_extinf(self):
        with pytest.raises(ValueError):
            MediaPlaylist.parse("#EXTM3U\nseg0.ts\n")

    def test_unknown_tags_ignored(self):
        text = self.playlist().render() + "#EXT-X-SOMETHING-NEW:1\n"
        assert len(MediaPlaylist.parse(text).entries) == 3

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            PlaylistEntry("x.ts", 0.0, 0)
        for duration in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PlaylistEntry("x.ts", duration, 0)

    @pytest.mark.parametrize("text", [
        # A NaN duration parsed into an entry.
        "#EXTM3U\n#EXTINF:nan,\nseg0.ts\n",
        "#EXTM3U\n#EXTINF:1e999,\nseg0.ts\n",
        "#EXTM3U\n#EXTINF:-3.600,\nseg0.ts\n",
        # Entries numbered from -4.
        "#EXTM3U\n#EXT-X-MEDIA-SEQUENCE:-4\n#EXTINF:3.600,\nseg0.ts\n",
        # int() reads these as 17; a decimal-integer has digits only.
        "#EXTM3U\n#EXT-X-MEDIA-SEQUENCE:1_7\n#EXTINF:3.600,\nseg0.ts\n",
        "#EXTM3U\n#EXT-X-MEDIA-SEQUENCE:+17\n#EXTINF:3.600,\nseg0.ts\n",
        # Two durations for one URI became one entry with the second.
        "#EXTM3U\n#EXTINF:3.600,\n#EXTINF:4.100,\nseg0.ts\n",
        "#EXTM3U\n#EXTINF:3.600,\nseg0.ts\n#EXTINF:4.100,\n",
        "#EXTM3U\n#EXT-X-TARGETDURATION:-4\n",
        "#EXTM3U\n#EXT-X-TARGETDURATION:nan\n",
        "#EXTM3U\n#EXT-X-TARGETDURATION:inf\n",
        "#EXTM3U\n#EXT-X-TARGETDURATION:" + "9" * 400 + "\n",
    ])
    def test_parse_rejects_malformed_numbers_and_entries(self, text):
        with pytest.raises(ValueError):
            MediaPlaylist.parse(text)

    def test_nbytes_positive(self):
        assert self.playlist().nbytes > 50


class TestLiveWindow:
    def test_window_slides(self):
        window = LiveWindow(target_duration_s=3.6)
        for i in range(5):
            window.add_segment(f"seg{i}.ts", 3.6)
        playlist = window.playlist()
        assert [e.uri for e in playlist.entries] == ["seg2.ts", "seg3.ts", "seg4.ts"]
        assert playlist.media_sequence == 2
        assert window.newest_sequence == 4

    def test_empty_playlist(self):
        window = LiveWindow(target_duration_s=4.0)
        assert window.playlist().entries == []


class TestWebSocket:
    def test_text_frame_size_matches_encoding(self):
        for text in ("hi", "x" * 200, "y" * 70_000):
            assert text_frame_size(text) == len(encode_frame(text.encode()))

    def test_frame_json_helpers(self):
        message = chat_message_json("alice", "hi there", has_avatar=True)
        assert message["username"] == "alice"
        assert message["profile_image_url"].endswith("/alice.jpg")

    def test_chat_json_without_avatar(self):
        message = chat_message_json("bob", "yo", has_avatar=False)
        assert "profile_image_url" not in message


class TestParseTagOrder:
    """Regression: per-entry sequences must come from the *final*
    #EXT-X-MEDIA-SEQUENCE, wherever the tag sits (RFC 8216 allows it
    anywhere before the segment it applies to).  The old single-pass
    parser numbered entries from whatever value had been seen so far."""

    HEADER = "#EXT-X-VERSION:3\n#EXT-X-TARGETDURATION:4\n"
    SEQ_TAG = "#EXT-X-MEDIA-SEQUENCE:17\n"
    ENTRIES = "#EXTINF:3.600,\nseg17.ts\n#EXTINF:3.600,\nseg18.ts\n"

    def test_sequence_tag_after_first_extinf(self):
        # Legal M3U8: the media-sequence tag between the two entries.
        text = (
            "#EXTM3U\n" + self.HEADER
            + "#EXTINF:3.600,\nseg17.ts\n"
            + self.SEQ_TAG
            + "#EXTINF:3.600,\nseg18.ts\n"
        )
        parsed = MediaPlaylist.parse(text)
        assert parsed.media_sequence == 17
        assert [e.sequence for e in parsed.entries] == [17, 18]

    def test_sequence_tag_last(self):
        text = "#EXTM3U\n" + self.HEADER + self.ENTRIES + self.SEQ_TAG
        parsed = MediaPlaylist.parse(text)
        assert parsed.media_sequence == 17
        assert [e.sequence for e in parsed.entries] == [17, 18]

    def test_all_header_permutations_agree(self):
        import itertools

        blocks = ["#EXT-X-VERSION:3\n", "#EXT-X-TARGETDURATION:4\n", self.SEQ_TAG]
        reference = None
        for order in itertools.permutations(blocks):
            text = "#EXTM3U\n" + "".join(order) + self.ENTRIES
            parsed = MediaPlaylist.parse(text)
            key = (
                parsed.media_sequence,
                tuple((e.uri, e.sequence) for e in parsed.entries),
                parsed.version,
                parsed.target_duration_s,
            )
            if reference is None:
                reference = key
            assert key == reference

    def test_parse_render_fixed_point(self):
        playlist = MediaPlaylist(
            target_duration_s=4.0,
            media_sequence=17,
            entries=[
                PlaylistEntry("seg17.ts", 3.6, 17),
                PlaylistEntry("seg18.ts", 3.6, 18),
            ],
            ended=True,
        )
        once = MediaPlaylist.parse(playlist.render())
        twice = MediaPlaylist.parse(once.render())
        assert once.render() == twice.render()
        assert [e.sequence for e in once.entries] == [17, 18]


class TestRenderByteCache:
    """Regression: nbytes re-rendered and re-encoded the playlist on
    every access; now the bytes are cached and invalidated on any
    rendered-field mutation."""

    def playlist(self):
        return MediaPlaylist(
            target_duration_s=4.0,
            media_sequence=3,
            entries=[PlaylistEntry("seg3.ts", 3.6, 3)],
        )

    def test_cache_hit_returns_same_object(self):
        playlist = self.playlist()
        first = playlist.render_bytes()
        assert playlist.render_bytes() is first
        assert playlist.nbytes == len(first)

    def test_entry_mutation_invalidates(self):
        playlist = self.playlist()
        before = playlist.nbytes
        playlist.entries.append(PlaylistEntry("seg4-long-name.ts", 3.6, 4))
        after = playlist.nbytes
        assert after > before
        assert playlist.render_bytes() == playlist.render().encode("utf-8")

    def test_ended_mutation_invalidates(self):
        playlist = self.playlist()
        before = playlist.nbytes
        playlist.ended = True
        assert playlist.nbytes == before + len("#EXT-X-ENDLIST\n")

    def test_media_sequence_mutation_invalidates(self):
        playlist = self.playlist()
        playlist.nbytes
        playlist.media_sequence = 4000
        assert b"#EXT-X-MEDIA-SEQUENCE:4000" in playlist.render_bytes()

    def test_cached_bytes_match_fresh_render(self):
        playlist = self.playlist()
        for _ in range(3):
            assert playlist.render_bytes() == playlist.render().encode("utf-8")


class TestLiveWindowPlaylistCache:
    def test_playlist_cached_between_mutations(self):
        window = LiveWindow(target_duration_s=3.6)
        window.add_segment("seg0.ts", 3.6)
        first = window.playlist()
        assert window.playlist() is first
        window.add_segment("seg1.ts", 3.6)
        second = window.playlist()
        assert second is not first
        assert [e.uri for e in second.entries] == ["seg0.ts", "seg1.ts"]
