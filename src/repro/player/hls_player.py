"""HLS receive path: playlist polling and sequential segment fetching.

The latency cost of HLS is structural and reproduced here end to end:
video waits for its segment to complete at the packager, the packaged
segment waits to be discovered via a playlist refresh, and then the
whole segment must be downloaded before any of its frames play.  In
exchange the player holds segment-sized buffers, which is why it stalls
less than RTMP on the same broadcast glitches.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.faults.retry import HLS_TRANSPORT_RETRY, RetryPolicy
from repro.media.segmenter import HlsSegment
from repro.netsim.events import EventLoop
from repro.player.buffer import NOMINAL_FRAME_S, PlaybackReport, Player
from repro.protocols.hls import MediaPlaylist, PlaylistEntry
from repro.protocols.http import HttpClient, HttpRequest, HttpResponse, HttpStatus

#: Playback starts as soon as the first fetched segment is buffered.
HLS_START_THRESHOLD_S = 0.2
HLS_REBUFFER_THRESHOLD_S = 0.5
#: Delay before re-requesting a playlist that had nothing new (the
#: normal live polling cadence; *failed* fetches walk the retry policy).
PLAYLIST_RETRY_S = 1.0


class HlsPlayer(Player):
    """Fetches the live window and feeds the playout buffer.

    Uses two HTTP connections — one for playlists, one for segments —
    matching the paper's observation that HLS sessions may use multiple
    parallel connections.
    """

    def __init__(
        self,
        loop: EventLoop,
        playlist_client: HttpClient,
        segment_client: HttpClient,
        playlist_path: str,
        broadcast_start: float,
        capture_clock_error_s: float = 0.0,
        transport_retry: RetryPolicy = HLS_TRANSPORT_RETRY,
        retry_rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(loop, HLS_START_THRESHOLD_S, HLS_REBUFFER_THRESHOLD_S,
                         broadcast_start, capture_clock_error_s)
        self.playlist_client = playlist_client
        self.segment_client = segment_client
        self.playlist_path = playlist_path
        #: Retry policy for *failed* playlist/segment fetches.  The
        #: default reproduces the historical fixed 1 s re-poll with a
        #: budget no 60 s watch can exhaust; fault plans swap in a
        #: bounded exponential policy with seeded jitter.
        self.transport_retry = transport_retry
        self._retry_rng = retry_rng
        self.stopped = False
        self.segments_fetched: List[HlsSegment] = []
        self._consecutive_errors = 0
        self._known_entries: Dict[int, PlaylistEntry] = {}
        self._next_sequence: Optional[int] = None
        self._fetching_segment = False
        self._origin_set = False

    # ----------------------------------------------------------------- start

    def start(self) -> None:
        self._request_playlist()

    def stop(self) -> None:
        self.stopped = True

    # ------------------------------------------------------------ resilience

    def _transport_error(self, action: Callable[[], None]) -> None:
        """A fetch failed: back off per policy, or degrade gracefully.

        Giving up stops fetching; the playout buffer drains and the rest
        of the watch is accounted as stall time — a QoE event, not a
        crash.
        """
        self._consecutive_errors += 1
        delay = self.transport_retry.delay_for(
            self._consecutive_errors, self._retry_rng
        )
        if delay is None:
            self.gave_up = True
            return
        self.transport_retries += 1
        telemetry = obs.active()
        if telemetry.enabled and telemetry.metrics_on:
            telemetry.metrics.counter(
                "retries_total", "Client retry attempts",
                kind="hls-transport",
            ).inc()
        if telemetry.enabled and telemetry.causes_on:
            telemetry.causes.add("transport.retry_backoff", delay)
        self.loop.schedule(delay, action)

    # -------------------------------------------------------------- playlist

    def _request_playlist(self) -> None:
        if self.stopped:
            return
        self.playlist_client.request(
            HttpRequest("GET", self.playlist_path), self._on_playlist
        )

    def _on_playlist(self, response: HttpResponse, now: float) -> None:
        if self.stopped:
            return
        if response.status != HttpStatus.OK or not isinstance(
            response.payload, MediaPlaylist
        ):
            self._transport_error(self._request_playlist)
            return
        self._consecutive_errors = 0
        playlist = response.payload
        for entry in playlist.entries:
            if entry.sequence not in self._known_entries:
                self._known_entries[entry.sequence] = entry
        if not playlist.entries:
            telemetry = obs.active()
            if telemetry.enabled and telemetry.causes_on:
                telemetry.causes.add("hls.playlist_wait", PLAYLIST_RETRY_S)
            self.loop.schedule(PLAYLIST_RETRY_S, self._request_playlist)
            return
        if self._next_sequence is None:
            # Join at the live edge: the newest published segment.
            self._next_sequence = playlist.entries[-1].sequence
        self._pump_segment_fetch()

    # -------------------------------------------------------------- segments

    def _pump_segment_fetch(self) -> None:
        if self.stopped or self._fetching_segment or self._next_sequence is None:
            return
        entry = self._known_entries.get(self._next_sequence)
        if entry is None:
            newest_known = max(self._known_entries) if self._known_entries else -1
            if newest_known > (self._next_sequence or 0):
                # We fell out of the live window; skip forward.
                self._next_sequence = newest_known
                entry = self._known_entries[newest_known]
            else:
                telemetry = obs.active()
                if telemetry.enabled and telemetry.causes_on:
                    telemetry.causes.add("hls.playlist_wait", PLAYLIST_RETRY_S)
                self.loop.schedule(PLAYLIST_RETRY_S, self._request_playlist)
                return
        self._fetching_segment = True
        self.segment_client.request(
            HttpRequest("GET", f"/{entry.uri}"),
            lambda resp, t, seq=entry.sequence: self._on_segment(resp, t, seq),
        )

    def _on_segment(self, response: HttpResponse, now: float, sequence: int) -> None:
        self._fetching_segment = False
        if self.stopped:
            return
        if response.status != HttpStatus.OK or not isinstance(
            response.payload, HlsSegment
        ):
            # Segment aged out before we fetched it; rejoin at the edge.
            self._next_sequence = None
            self._transport_error(self._request_playlist)
            return
        self._consecutive_errors = 0
        segment = response.payload
        self.segments_fetched.append(segment)
        self._next_sequence = sequence + 1
        observed = now + self.capture_clock_error_s
        last_pts = segment.start_pts
        for frame in segment.video_frames:
            last_pts = max(last_pts, frame.pts)
            if frame.ntp_timestamp is not None:
                self.delivery_latency_samples.append(observed - frame.ntp_timestamp)
        if not self._origin_set:
            self.buffer.set_play_origin(segment.start_pts)
            self._origin_set = True
        self.buffer.on_media(last_pts + NOMINAL_FRAME_S)
        self._pump_segment_fetch()

    # ------------------------------------------------------------- reporting

    @property
    def video_frames(self) -> List:
        frames = []
        for segment in self.segments_fetched:
            frames.extend(segment.video_frames)
        return frames

    def finalize(self, end_time: float) -> PlaybackReport:
        self.stop()
        return super().finalize(end_time)
