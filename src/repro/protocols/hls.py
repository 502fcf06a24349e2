"""HTTP Live Streaming: M3U8 playlists and the live segment window.

Periscope falls back to HLS (served from Fastly CDN) when a broadcast is
popular.  The protocol costs latency by construction: video must be
packaged into complete segments (3-6 s), the playlist must be refreshed,
and each segment is a separate HTTP GET — the paper measures >5 s average
delivery latency against RTMP's <300 ms.

This module implements the textual M3U8 playlist format (render + parse)
and the server-side live window bookkeeping.  The client fetch loop lives
in :mod:`repro.player.hls_player`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import List, Optional

#: Segments a live playlist lists at once.
LIVE_WINDOW_SEGMENTS = 3


@dataclass(frozen=True)
class PlaylistEntry:
    """One #EXTINF entry of a media playlist."""

    uri: str
    duration_s: float
    sequence: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration_s) or self.duration_s <= 0:
            raise ValueError("segment duration must be positive and finite")


#: RFC 8216 section 4.2 number forms.  A decimal-integer is ASCII digits;
#: a decimal-floating-point is ASCII digits with at most one point.
#: Neither has a sign, an exponent, an underscore or a name such as
#: ``nan``, all of which ``int`` and ``float`` accept.
_DECIMAL_INTEGER = re.compile(r"[0-9]+")
_DECIMAL_FLOAT = re.compile(r"[0-9]+(?:\.[0-9]*)?|\.[0-9]+")


def _decimal(value: str, form: "re.Pattern[str]") -> str:
    """``value`` if it has the number ``form``, else ``ValueError``."""
    if form.fullmatch(value) is None:
        raise ValueError(f"malformed number {value!r}")
    return value


@dataclass
class MediaPlaylist:
    """A live media playlist (no #EXT-X-ENDLIST until the broadcast ends)."""

    target_duration_s: float
    media_sequence: int
    entries: List[PlaylistEntry] = field(default_factory=list)
    ended: bool = False
    version: int = 3

    def render(self) -> str:
        """Serialize to M3U8 text."""
        lines = [
            "#EXTM3U",
            f"#EXT-X-VERSION:{self.version}",
            # The spec's rounding is a ceiling: 3.0 stays 3, 3.2 becomes 4.
            f"#EXT-X-TARGETDURATION:{math.ceil(self.target_duration_s)}",
            f"#EXT-X-MEDIA-SEQUENCE:{self.media_sequence}",
        ]
        for entry in self.entries:
            lines.append(f"#EXTINF:{entry.duration_s:.3f},")
            lines.append(entry.uri)
        if self.ended:
            lines.append("#EXT-X-ENDLIST")
        return "\n".join(lines) + "\n"

    def _state_key(self) -> tuple:
        """Everything the rendered text depends on.  ``entries`` is a
        mutable list the window code appends to, so the key snapshots it
        (entries themselves are frozen)."""
        return (
            self.version,
            self.target_duration_s,
            self.media_sequence,
            self.ended,
            tuple(self.entries),
        )

    def render_bytes(self) -> bytes:
        """UTF-8 rendering, cached until any field mutates.

        A live origin answers every playlist poll with the same text
        until a segment is published; re-rendering per poll was a
        measurable hot path.  The cache key covers every rendered field,
        so mutation through any of them invalidates it.
        """
        key = self._state_key()
        cached = self.__dict__.get("_render_cache")
        if cached is not None and cached[0] == key:
            return cached[1]
        data = self.render().encode("utf-8")
        self.__dict__["_render_cache"] = (key, data)
        return data

    @property
    def nbytes(self) -> int:
        return len(self.render_bytes())

    @classmethod
    def parse(cls, text: str) -> "MediaPlaylist":
        """Parse M3U8 text back into a playlist.

        Two passes: header tags first, then entries.  RFC 8216 allows
        #EXT-X-MEDIA-SEQUENCE anywhere before the first media segment it
        applies to, so per-entry sequence numbers cannot be assigned
        until the whole header is known — a single pass numbered entries
        from whatever value had been *seen so far* (0 if the tag came
        after the first #EXTINF).

        Malformed input raises ``ValueError``: a number that is not an
        RFC 8216 decimal (so no negative media sequence and no ``nan``
        duration), a target duration that overflows to infinity, and an
        #EXTINF that is not followed by exactly one segment URI.
        """
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines or lines[0] != "#EXTM3U":
            raise ValueError("not an M3U8 playlist (missing #EXTM3U)")
        target = 0.0
        sequence = 0
        version = 3
        ended = False
        # Pass 1: header/global tags, wherever they appear.
        for line in lines[1:]:
            if line.startswith("#EXT-X-TARGETDURATION:"):
                target = float(_decimal(line.split(":", 1)[1], _DECIMAL_FLOAT))
                if not math.isfinite(target):
                    raise ValueError(f"target duration out of range in {line!r}")
            elif line.startswith("#EXT-X-MEDIA-SEQUENCE:"):
                sequence = int(_decimal(line.split(":", 1)[1], _DECIMAL_INTEGER))
            elif line.startswith("#EXT-X-VERSION:"):
                version = int(line.split(":", 1)[1])
            elif line == "#EXT-X-ENDLIST":
                ended = True
        # Pass 2: media entries, numbered from the final media sequence.
        entries: List[PlaylistEntry] = []
        pending_duration: Optional[float] = None
        for line in lines[1:]:
            if line.startswith("#EXTINF:"):
                if pending_duration is not None:
                    raise ValueError(f"{line!r} follows an #EXTINF without a URI")
                duration = line.split(":", 1)[1].split(",", 1)[0]
                pending_duration = float(_decimal(duration, _DECIMAL_FLOAT))
            elif line.startswith("#"):
                continue  # header tag (pass 1) or unknown tag, ignored here
            else:
                if pending_duration is None:
                    raise ValueError(f"segment URI {line!r} without #EXTINF")
                entries.append(
                    PlaylistEntry(
                        uri=line,
                        duration_s=pending_duration,
                        sequence=sequence + len(entries),
                    )
                )
                pending_duration = None
        if pending_duration is not None:
            raise ValueError("the last #EXTINF has no segment URI")
        return cls(
            target_duration_s=target,
            media_sequence=sequence,
            entries=entries,
            ended=ended,
            version=version,
        )


class LiveWindow:
    """Server-side sliding window of the most recent segments.

    A live HLS origin keeps only the last :data:`LIVE_WINDOW_SEGMENTS`
    segments in the playlist; older ones age out (clients that fall
    behind skip forward).
    """

    def __init__(self, target_duration_s: float) -> None:
        self.target_duration_s = target_duration_s
        self._entries: List[PlaylistEntry] = []
        self._next_sequence = 0
        #: Rendered playlist shared by every poll between mutations.
        #: Consumers treat playlists as read-only snapshots.
        self._playlist_cache: Optional[MediaPlaylist] = None

    def add_segment(self, uri: str, duration_s: float) -> PlaylistEntry:
        """Publish a newly completed segment."""
        entry = PlaylistEntry(uri=uri, duration_s=duration_s, sequence=self._next_sequence)
        self._next_sequence += 1
        self._entries.append(entry)
        if len(self._entries) > LIVE_WINDOW_SEGMENTS:
            self._entries.pop(0)
        self._playlist_cache = None
        return entry

    @property
    def newest_sequence(self) -> int:
        return self._next_sequence - 1

    def playlist(self) -> MediaPlaylist:
        """The playlist a client fetching right now would receive.

        A live origin is polled once per target duration by *every*
        viewer; between mutations all polls see the same text, so the
        built playlist (and through it the rendered bytes) is cached and
        rebuilt only when a segment is published.
        """
        cached = self._playlist_cache
        if cached is not None:
            return cached
        media_sequence = self._entries[0].sequence if self._entries else self._next_sequence
        built = MediaPlaylist(
            target_duration_s=self.target_duration_s,
            media_sequence=media_sequence,
            entries=list(self._entries),
        )
        self._playlist_cache = built
        return built
