"""Live delivery: from the broadcaster's camera to the viewer's socket.

One :class:`LiveSourceDriver` per watched broadcast drives the AVC/AAC
encoder models in simulated time and models the broadcaster's uplink —
including occasional uplink *outages*, the paper's explanation for the
isolated 3-5 s stalls that produce the 0.05-0.09 stall-ratio cluster in
Fig. 3(a) even on an unthrottled viewer connection.

Two consumers exist:

* :class:`RtmpDelivery` — pushes every frame to the viewer the moment the
  ingest server has it (plus a small keyframe rewind at join so playback
  can start immediately);
* :class:`HlsOrigin` — packages frames into I-frame-aligned MPEG-TS
  segments, applies the packaging/transcode delay, publishes them to the
  CDN's live window and answers playlist/segment HTTP requests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.media.audio import AacEncoderModel
from repro.media.content import ContentProcess
from repro.media.encoder import EncoderSettings, VideoEncoder
from repro.media.frames import AudioFrame, EncodedFrame
from repro.media.segmenter import SEGMENT_TARGET_S, HlsSegment
from repro.netsim.events import EventLoop
from repro.protocols.hls import LiveWindow
from repro.protocols.http import HttpRequest, HttpResponse, HttpStatus
from repro.protocols.rtmp import RtmpPushSession
from repro.service.broadcast import Broadcast
from repro.util.rng import child_rng

#: Overhead multiplier of MPEG-TS packetization (188/184 plus PES/PSI).
#: An estimate: ``mpegts.mux_segment`` of the same frames runs 1.11-1.46x
#: the frame bytes (ROADMAP item 2).
TS_OVERHEAD_FACTOR = 1.05

MediaFrame = Union[EncodedFrame, AudioFrame]
FrameSink = Callable[[MediaFrame, float], None]


@dataclass
class UplinkModel:
    """The broadcaster's mobile uplink.

    ``base_delay_s`` covers radio + path to the ingest server (which is
    near the broadcaster); outages model the glitches the paper blames
    for missing frames and mid-stream stalls.
    """

    base_delay_s: float = 0.05
    jitter_s: float = 0.02
    #: Mean outages per second (Poisson).
    outage_rate_per_s: float = 0.0045
    outage_min_s: float = 2.0
    outage_max_s: float = 7.0

    def outage_schedule(
        self, rng: random.Random, start: float, duration_s: float
    ) -> List[Tuple[float, float]]:
        """(start, end) outage intervals within [start, start+duration)."""
        outages: List[Tuple[float, float]] = []
        if self.outage_rate_per_s <= 0:
            return outages
        t = start
        while True:
            t += rng.expovariate(self.outage_rate_per_s)
            if t >= start + duration_s:
                return outages
            length = rng.uniform(self.outage_min_s, self.outage_max_s)
            outages.append((t, t + length))

    def arrival_with_defer(
        self,
        capture_time: float,
        rng: random.Random,
        outages: Sequence[Tuple[float, float]],
    ) -> Tuple[float, float]:
        """When a frame captured at ``capture_time`` reaches the ingest
        server (base delay + jitter, deferred past any outage), and the
        seconds an outage deferred it (0.0 when none was in the way)."""
        base = capture_time + self.base_delay_s + abs(rng.gauss(0.0, self.jitter_s))
        arrival = base
        for outage_start, outage_end in outages:
            if outage_start <= arrival < outage_end:
                # Frames held up by an outage burst out at its end, keeping
                # capture order via a tiny spacing term.
                arrival = outage_end + max(0.0, capture_time - outage_start) * 0.01
        return arrival, max(0.0, arrival - base)


class LiveSourceDriver:
    """Drives one broadcast's encoders in simulated time.

    The viewer joins ``age_at_join`` seconds into the broadcast; session
    time 0 is the join instant, so the broadcast started at session time
    ``-age_at_join``.  Media timestamps (pts) count from the broadcast
    start as usual.

    ``generate_from`` trims history: frames before that media offset are
    never produced (an RTMP viewer needs only a keyframe of rewind; an
    HLS viewer needs the current live window of segments).
    """

    #: Audio frames are batched into bundles before transmission; RTMP
    #: interleaves them anyway and it keeps the event count sane.
    AUDIO_BUNDLE_S = 0.5

    def __init__(
        self,
        loop: EventLoop,
        broadcast: Broadcast,
        age_at_join: float,
        horizon_s: float,
        uplink: Optional[UplinkModel] = None,
        generate_from: Optional[float] = None,
        broadcaster_clock_offset_s: float = 0.0,
    ) -> None:
        if age_at_join < 0:
            raise ValueError("a viewer cannot join before the broadcast starts")
        self.loop = loop
        self.broadcast = broadcast
        self.age_at_join = age_at_join
        self.horizon_s = horizon_s
        self.uplink = uplink or UplinkModel()
        self.broadcast_start = -age_at_join  # session time

        rng_root = broadcast.seed
        self._rng = child_rng(rng_root, "uplink")
        content = ContentProcess(
            broadcast.content_profile, child_rng(rng_root, "content")
        )
        settings = EncoderSettings(
            target_bps=broadcast.target_bitrate_bps,
            gop=broadcast.gop,
        )
        # The broadcaster's NTP clock has a small sync error; delivery
        # latency samples inherit it (hence the occasional negative values
        # the paper reports).
        self.encoder = VideoEncoder(
            settings,
            content,
            child_rng(rng_root, "encoder"),
            wallclock_start=self.broadcast_start + broadcaster_clock_offset_s,
        )
        self.audio = AacEncoderModel(
            child_rng(rng_root, "audio"), nominal_bps=broadcast.audio_bitrate_bps
        )
        start = generate_from if generate_from is not None else 0.0
        self.generate_from = max(0.0, start)
        self._sinks: List[FrameSink] = []
        self._prepared = False
        #: Frames whose ingest arrival predates the join (history).
        self.history: List[Tuple[float, MediaFrame]] = []

    def add_sink(self, sink: FrameSink) -> None:
        """Register a consumer of (frame, ingest_arrival_time) pairs."""
        self._sinks.append(sink)

    # ---------------------------------------------------------------- driving

    def start(self) -> None:
        """Generate the media timeline and schedule ingest arrivals."""
        if self._prepared:
            raise RuntimeError("driver already started")
        self._prepared = True
        total_media = self.age_at_join + self.horizon_s
        duration = total_media - self.generate_from
        if duration <= 0:
            raise ValueError("nothing to generate: horizon precedes history start")

        outages = self.uplink.outage_schedule(
            self._rng, self.broadcast_start, total_media + 10.0
        )

        events: List[Tuple[float, MediaFrame, float]] = []
        for frame in self.encoder.generate(duration):
            shifted = _shift_video(frame, self.generate_from)
            capture = self.broadcast_start + shifted.dts
            arrival, defer = self.uplink.arrival_with_defer(
                capture, self._rng, outages
            )
            events.append((arrival, shifted, defer))

        bundle_bound = self.generate_from
        for frame in self.audio.generate(duration):
            shifted = AudioFrame(
                index=frame.index, pts=frame.pts + self.generate_from, nbytes=frame.nbytes
            )
            capture = self.broadcast_start + shifted.pts
            # Audio is bundled: all frames of a bundle arrive when the
            # bundle closes.
            bundle_close = (
                math.floor(shifted.pts / self.AUDIO_BUNDLE_S) + 1
            ) * self.AUDIO_BUNDLE_S
            capture_close = self.broadcast_start + bundle_close
            arrival, defer = self.uplink.arrival_with_defer(
                capture_close, self._rng, outages
            )
            events.append((arrival, shifted, defer))

        events.sort(key=lambda e: e[0])
        for arrival, frame, defer in events:
            if arrival <= self.loop.now:
                self.history.append((arrival, frame))
            else:
                self.loop.schedule_at(
                    arrival,
                    lambda f=frame, a=arrival, d=defer: self._emit(f, a, d),
                )

    def _emit(
        self, frame: MediaFrame, arrival: float, outage_defer: float = 0.0
    ) -> None:
        if outage_defer > 0.0:
            # Attributed here, inside the already-scheduled arrival
            # callback, so attribution adds no events to the loop.
            telemetry = obs.active()
            if telemetry.enabled and telemetry.causes_on:
                telemetry.causes.add("uplink.outage", outage_defer)
        for sink in self._sinks:
            sink(frame, arrival)


def _shift_video(frame: EncodedFrame, offset: float) -> EncodedFrame:
    """Rebase a freshly encoded frame onto the broadcast's media timeline."""
    if offset == 0.0:
        return frame
    return EncodedFrame(
        index=frame.index,
        pts=frame.pts + offset,
        dts=frame.dts + offset,
        frame_type=frame.frame_type,
        nbytes=frame.nbytes,
        qp=frame.qp,
        complexity=frame.complexity,
        ntp_timestamp=(
            frame.ntp_timestamp + offset if frame.ntp_timestamp is not None else None
        ),
    )


class RtmpDelivery:
    """Ingest-server side of an RTMP viewing session.

    On :meth:`start`, the most recent GOP of already-ingested history
    (back to the last keyframe) is pushed immediately so the player can
    begin decoding; afterwards every arriving frame is pushed on arrival.
    """

    def __init__(self, push: RtmpPushSession, driver: LiveSourceDriver) -> None:
        self.push = push
        self.driver = driver
        self.started = False
        #: Ingest-outage state: while interrupted, arriving frames are
        #: held and flushed on resume (the failover/recovered server has
        #: the stream the broadcaster kept pushing).
        self.interrupted = False
        self.interruptions = 0
        self._held: List[MediaFrame] = []
        driver.add_sink(self._on_ingest)

    def start(self) -> None:
        self.started = True
        backlog = self._keyframe_rewind(self.driver.history)
        for frame in backlog:
            self.push.push_frame(frame)

    def interrupt(self) -> None:
        """The ingest server went down: stop pushing to the viewer."""
        if self.interrupted:
            return
        self.interrupted = True
        self.interruptions += 1

    def resume(self) -> None:
        """The client reconnected: flush frames held during the outage."""
        if not self.interrupted:
            return
        self.interrupted = False
        held, self._held = self._held, []
        if self.started:
            for frame in held:
                self.push.push_frame(frame)

    @staticmethod
    def _keyframe_rewind(history: Sequence[Tuple[float, MediaFrame]]) -> List[MediaFrame]:
        """History frames from the last keyframe onward, in arrival order."""
        last_key_index = None
        for index, (_, frame) in enumerate(history):
            if isinstance(frame, EncodedFrame) and frame.frame_type == "I":
                last_key_index = index
        if last_key_index is None:
            return []
        key_pts = history[last_key_index][1].pts
        return [
            frame
            for _, frame in history[last_key_index:]
            if not isinstance(frame, AudioFrame) or frame.pts >= key_pts
        ]

    def _on_ingest(self, frame: MediaFrame, arrival: float) -> None:
        if not self.started:
            return
        if self.interrupted:
            self._held.append(frame)
            return
        self.push.push_frame(frame)


class HlsOrigin:
    """Packager + CDN origin for one broadcast.

    Completed segments incur ``packaging_delay_s`` (repackaging and
    possible transcoding at the Periscope backend before the CDN has
    them) and then enter the live window.  The HTTP handler answers
    ``GET <broadcast>/playlist.m3u8`` and ``GET <segment uri>``; a
    segment goes out as its frame bytes times :data:`TS_OVERHEAD_FACTOR`.
    """

    def __init__(
        self,
        loop: EventLoop,
        driver: LiveSourceDriver,
        outage_windows: Sequence[Tuple[float, float]] = (),
    ) -> None:
        self.loop = loop
        self.driver = driver
        #: Ingest/packager outage windows: a segment whose publish time
        #: lands inside one is published when the outage ends (viewers
        #: see a stale playlist meanwhile — the HLS face of an ingest
        #: fault).
        self.outage_windows = sorted(outage_windows)
        self.publishes_deferred = 0
        # Packaging/transcode time varies per backend placement and
        # stream; sampled once per broadcast.
        rng = child_rng(driver.broadcast.seed, "packaging")
        self.packaging_delay_s = min(
            max(rng.lognormvariate(math.log(2.3), 0.35), 0.9), 5.5
        )
        self.window = LiveWindow(target_duration_s=SEGMENT_TARGET_S)
        self._segments: Dict[str, HlsSegment] = {}
        self._current: Optional[HlsSegment] = None
        self._sequence = 0
        self.segments_published = 0
        driver.add_sink(self._on_ingest)

    def start(self) -> None:
        """Process already-ingested history (segments that existed before
        the viewer joined are published instantly)."""
        for arrival, frame in self.driver.history:
            self._consume(frame, arrival, historical=True)

    # ------------------------------------------------------------- packaging

    def _on_ingest(self, frame: MediaFrame, arrival: float) -> None:
        self._consume(frame, arrival, historical=False)

    def _consume(self, frame: MediaFrame, arrival: float, historical: bool) -> None:
        if isinstance(frame, AudioFrame):
            if self._current is not None:
                self._current.audio_frames.append(frame)
            return
        if self._current is not None and (
            frame.frame_type == "I"
            and frame.pts - self._current.start_pts >= SEGMENT_TARGET_S
        ):
            self._close_segment(self._current, arrival, historical)
            self._current = None
        if self._current is None:
            self._current = HlsSegment(sequence=self._sequence, start_pts=frame.pts)
            self._sequence += 1
        self._current.video_frames.append(frame)

    def _close_segment(self, segment: HlsSegment, completed_at: float, historical: bool) -> None:
        publish_at = completed_at + self.packaging_delay_s
        outage_defer = 0.0
        for window_start, window_end in self.outage_windows:
            if window_start <= publish_at < window_end:
                outage_defer += window_end - publish_at
                publish_at = window_end
                self.publishes_deferred += 1
        telemetry = obs.active()
        if (telemetry.enabled and telemetry.causes_on
                and publish_at > self.loop.now):
            # Only viewer-visible delay counts: segments that published
            # before the session joined (history) cost the viewer nothing.
            telemetry.causes.add("service.packaging", self.packaging_delay_s)
            if outage_defer > 0.0:
                telemetry.causes.add("service.outage", outage_defer)
        if historical and publish_at <= self.loop.now:
            self._publish(segment)
        else:
            self.loop.schedule_at(
                max(publish_at, self.loop.now), lambda s=segment: self._publish(s)
            )

    def _publish(self, segment: HlsSegment) -> None:
        uri = f"seg{segment.sequence}.ts"
        self._segments[uri] = segment
        self.window.add_segment(uri, max(segment.duration_s, 0.04))
        self.segments_published += 1

    # ------------------------------------------------------------------- CDN

    def handle(self, request: HttpRequest, identity: str) -> HttpResponse:
        """HTTP handler for the CDN edge."""
        if request.method != "GET":
            return HttpResponse(HttpStatus.NOT_FOUND, json_body={"error": "GET only"})
        if request.path.endswith("playlist.m3u8"):
            playlist = self.window.playlist()
            return HttpResponse(
                HttpStatus.OK,
                body_bytes=playlist.nbytes,
                payload=playlist,
            )
        uri = request.path.rsplit("/", 1)[-1]
        segment = self._segments.get(uri)
        if segment is None:
            return HttpResponse(HttpStatus.NOT_FOUND, json_body={"error": "no such segment"})
        return HttpResponse(
            HttpStatus.OK,
            body_bytes=int(segment.nbytes * TS_OVERHEAD_FACTOR),
            payload=segment,
        )
