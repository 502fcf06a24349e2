"""RTMP receive path: frames stream in, playback starts after a short
jitter buffer.

The app's RTMP player keeps only a couple of seconds of buffer — that is
what makes RTMP's playback latency "a few seconds" (mostly buffering,
since delivery itself is sub-300 ms) and what makes it stall on
broadcaster uplink glitches that HLS's segment-sized buffer absorbs.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Union

from repro import obs
from repro.faults.retry import RetryPolicy, RetrySchedule
from repro.media.frames import AudioFrame, EncodedFrame
from repro.netsim.connection import Message
from repro.netsim.events import EventLoop
from repro.player.buffer import NOMINAL_FRAME_S, Player

#: Media buffered before playback starts (join) and after a stall.
RTMP_START_THRESHOLD_S = 1.8
RTMP_REBUFFER_THRESHOLD_S = 1.0


class RtmpPlayer(Player):
    """Consumes pushed RTMP frames; drives the playout buffer."""

    def __init__(
        self,
        loop: EventLoop,
        broadcast_start: float,
        capture_clock_error_s: float = 0.0,
        start_threshold_s: float = RTMP_START_THRESHOLD_S,
        rebuffer_threshold_s: float = RTMP_REBUFFER_THRESHOLD_S,
    ) -> None:
        super().__init__(loop, start_threshold_s, rebuffer_threshold_s,
                         broadcast_start, capture_clock_error_s)
        self.video_frames: List[EncodedFrame] = []
        #: Reconnect probes walked (ingest outages; see begin_reconnect).
        self.reconnect_attempts = 0

    # ------------------------------------------------------------- receiving

    def on_message(self, message: Message, now: float) -> None:
        """Connection callback for the RTMP stream."""
        if message.annotations.get("protocol") != "rtmp":
            return
        frame = message.payload
        self.on_frame(frame, now)

    def on_frame(self, frame: Union[EncodedFrame, AudioFrame], now: float) -> None:
        """One media frame arrived at the phone."""
        if isinstance(frame, AudioFrame):
            return  # video gates playability; audio frames ride along
        self.video_frames.append(frame)
        if frame.ntp_timestamp is not None:
            observed = now + self.capture_clock_error_s
            self.delivery_latency_samples.append(observed - frame.ntp_timestamp)
        self.buffer.on_media(frame.pts + NOMINAL_FRAME_S)

    # ------------------------------------------------------------ resilience

    def begin_reconnect(
        self,
        policy: RetryPolicy,
        probe: Callable[[float], bool],
        on_restored: Callable[[float], None],
        rng: Optional[random.Random] = None,
    ) -> None:
        """The stream disconnected (ingest outage): walk the retry policy.

        ``probe(now)`` models one reconnect attempt — True when a server
        (recovered primary or a failover region) accepts the connection.
        On success ``on_restored(now)`` fires; when the budget runs out
        the player gives up and playback degrades to a stall for the
        rest of the watch instead of crashing.
        """
        self.disconnects += 1
        telemetry = obs.active()
        if telemetry.enabled and telemetry.metrics_on:
            telemetry.metrics.counter(
                "faults_injected_total",
                "Fault events injected across layers",
                kind="rtmp-disconnect",
            ).inc()
        schedule = RetrySchedule(policy, rng=rng, started_at=self.loop.now)

        def attempt() -> None:
            now = self.loop.now
            self.reconnect_attempts += 1
            tel = obs.active()
            if tel.enabled and tel.metrics_on:
                tel.metrics.counter(
                    "retries_total", "Client retry attempts",
                    kind="rtmp-reconnect",
                ).inc()
            if probe(now):
                self.reconnects += 1
                if tel.enabled and tel.metrics_on:
                    tel.metrics.counter(
                        "reconnects_total", "Successful stream reconnects",
                        protocol="rtmp",
                    ).inc()
                on_restored(now)
                return
            delay = schedule.next_delay(now)
            if delay is None:
                self.gave_up = True
                return
            if tel.enabled and tel.causes_on:
                tel.causes.add("transport.retry_backoff", delay)
            self.loop.schedule(delay, attempt)

        first = schedule.next_delay(self.loop.now)
        if first is None:
            self.gave_up = True
            return
        if telemetry.enabled and telemetry.causes_on:
            telemetry.causes.add("transport.retry_backoff", first)
        self.loop.schedule(first, attempt)
