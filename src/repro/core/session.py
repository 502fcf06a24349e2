"""One automated viewing session, end to end.

Reproduces the paper's adb loop for a single broadcast, and
:meth:`ViewingSession.run` reads as that loop: tap Teleport, resolve the
broadcast through the API, connect over the selected protocol, watch for
exactly 60 seconds with the chat pane visible (the app's default), then
close, and the app finally uploads its playbackMeta statistics.  Each
step is a method; every callback the session hands the event loop or a
client is a bound method or a ``functools.partial`` over one, so the
profiler names each site.  Whichever protocol the session picked, it
reads its player through one contract, :class:`repro.player.Player`.

The download volume is the tether download link's wire-byte counter; a
caller that wants the tcpdump trace calls
``session.testbed.start_capture()`` before :meth:`ViewingSession.run`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from repro import obs
from repro.automation.devices import DeviceProfile
from repro.automation.ntp import BROADCASTER_PHONE_CLOCK, CAPTURE_DESKTOP_CLOCK
from repro.automation.shaping import shaper_for_limit
from repro.core.qoe import SessionQoE
from repro.core.testbed import SessionTestbed, TestbedConfig, VIEWER_LOCATION
from repro.faults.plan import FaultPlan
from repro.faults.retry import HLS_TRANSPORT_RETRY, RetrySchedule
from repro.media.frames import EncodedFrame
from repro.netsim.connection import Connection, Message
from repro.netsim.duplex import DuplexStream
from repro.netsim.events import EventLoop
from repro.player.buffer import PlaybackReport, Player
from repro.player.chat_client import AVATAR_POOL_CONNECTIONS, ChatClient
from repro.player.hls_player import HlsPlayer
from repro.player.rtmp_player import RtmpPlayer
from repro.protocols.http import HttpClient, HttpRequest, HttpResponse, HttpServer, HttpStatus
from repro.protocols.rtmp import (
    HANDSHAKE_C0,
    HANDSHAKE_C1,
    HANDSHAKE_C2,
    HANDSHAKE_S0S1S2,
    RtmpPushSession,
)
from repro.service.api import API_PATH
from repro.service.broadcast import Broadcast
from repro.service.chat import ChatFeed, ChatMessage
from repro.service.delivery import HlsOrigin, LiveSourceDriver, RtmpDelivery
from repro.service.geo import GeoPoint
from repro.service.ingest import IngestPool, nearest_cdn_edge
from repro.service.selection import DeliveryProtocol
from repro.util.rng import child_rng

#: Fixed server locations (API frontend and chat in San Francisco —
#: Periscope/Twitter infrastructure — avatars in us-east S3).
API_LOCATION = GeoPoint(37.8, -122.4)
CHAT_LOCATION = GeoPoint(37.8, -122.4)
S3_LOCATION = GeoPoint(38.9, -77.4)

#: History the driver generates before the join, per protocol.
RTMP_HISTORY_S = 3.0
HLS_HISTORY_S = 16.0


@dataclass
class SessionSetup:
    """Everything needed to run one session deterministically."""

    broadcast: Broadcast
    age_at_join: float
    protocol: DeliveryProtocol
    device: DeviceProfile
    bandwidth_limit_mbps: float = 100.0
    watch_seconds: float = 60.0
    chat_ui_on: bool = True
    cache_avatars: bool = False
    seed: int = 0
    #: Optional fault plan; ``None`` runs the pristine network with
    #: bit-identical behaviour to builds that predate fault injection.
    faults: Optional[FaultPlan] = None


@dataclass
class SessionArtifacts:
    """Raw per-session outputs beyond the QoE record."""

    qoe: SessionQoE
    playback_meta: dict
    chat_messages: int
    avatar_requests: int
    avatar_bytes: int
    duplicate_avatar_downloads: int
    total_down_bytes: int


def _s3_handler(request: HttpRequest, identity: str) -> HttpResponse:
    """The avatar store answers with the size the chat message named."""
    nbytes = int(request.headers.get("x-size", "30000"))
    return HttpResponse(HttpStatus.OK, body_bytes=nbytes)


def _push_chat(stream: DuplexStream, message: ChatMessage, kind: str) -> None:
    """The chat service sends one message over the websocket."""
    if not stream.closed:
        stream.send_from_b(Message(
            payload=message,
            nbytes=message.frame_bytes(),
            annotations={"protocol": "websocket", "kind": kind},
        ))


def _reconnect_accepted(failover_ok: bool, window_end: float, now: float) -> bool:
    """One reconnect probe: a failover region accepts at once, the
    primary only once its outage window has ended."""
    return failover_ok or now >= window_end


class ViewingSession:
    """Builds the testbed, runs the 60 s watch, and reports QoE."""

    def __init__(self, setup: SessionSetup, ingest: Optional[IngestPool] = None) -> None:
        self.setup = setup
        key = self._seed_key = (setup.seed, setup.broadcast.broadcast_id)
        self.ingest = ingest or IngestPool(child_rng(key, "ingest"))
        self.loop = EventLoop()
        self.testbed = SessionTestbed(
            self.loop,
            TestbedConfig(
                shaper=shaper_for_limit(setup.bandwidth_limit_mbps),
                faults=setup.faults,
                fault_seed=key,
                fault_horizon_s=setup.watch_seconds + 10.0,
            ),
        )
        self._capture_clock_error = CAPTURE_DESKTOP_CLOCK.sample_offset(
            child_rng(key, "capture-clock")
        )
        self._broadcaster_clock_error = BROADCASTER_PHONE_CLOCK.sample_offset(
            child_rng(key, "broadcaster-clock")
        )
        self._viewers = setup.broadcast.viewers_at(
            setup.broadcast.start_time + setup.age_at_join
        )
        # No plan is the empty plan: it injects nothing and draws nothing.
        self._plan = setup.faults or FaultPlan()
        self._api_fault = self._plan.api_injector(child_rng(key, "fault-api"))
        self._api_retry_rng = child_rng(key, "fault-api-retry")
        self._api_retries = 0
        self._ingest_windows = self._plan.ingest_windows(
            child_rng(key, "fault-ingest"), setup.watch_seconds
        )
        self._fault_events: List[str] = [
            f"ingest-outage@{start:.2f}" for start, _end in self._ingest_windows
        ]
        # Set by _setup_rtmp / _setup_hls: the player, and what connects
        # it once the API has resolved the broadcast.
        self._player: Optional[Player] = None
        self._start_media: Optional[Callable[[], None]] = None
        self._rtmp_up: Optional[Connection] = None
        self._rtmp_delivery: Optional[RtmpDelivery] = None

    # -------------------------------------------------------------- topology

    def _media_server_location(self) -> GeoPoint:
        if self.setup.protocol == DeliveryProtocol.RTMP:
            return self.ingest.nearest_to(self.setup.broadcast.location).location
        return nearest_cdn_edge(VIEWER_LOCATION).location

    def _source_driver(self) -> LiveSourceDriver:
        """The broadcast's live source, with history from before the join."""
        setup = self.setup
        history = RTMP_HISTORY_S if setup.protocol == DeliveryProtocol.RTMP else HLS_HISTORY_S
        return LiveSourceDriver(
            self.loop,
            setup.broadcast,
            age_at_join=setup.age_at_join,
            horizon_s=setup.watch_seconds + 5.0,
            generate_from=max(0.0, setup.age_at_join - history),
            broadcaster_clock_offset_s=self._broadcaster_clock_error,
        )

    # ------------------------------------------------------------------- run

    def run(self) -> SessionArtifacts:
        """Build the testbed, tap Teleport, watch, upload playbackMeta."""
        setup = self.setup
        loop = self.loop
        tb = self.testbed
        telemetry = obs.active()
        session_span = self._open_telemetry(telemetry)
        tb.add_server("api", API_LOCATION)
        tb.add_server("media", self._media_server_location())
        tb.add_server("chat", CHAT_LOCATION)
        tb.add_server("s3", S3_LOCATION)
        driver = self._source_driver()
        api_stream = tb.stream_to("api", name="api")
        HttpServer(loop, api_stream, self._api_handler, processing_delay_s=0.030)
        self._api_client = HttpClient(loop, api_stream)
        if setup.protocol == DeliveryProtocol.RTMP:
            self._setup_rtmp(driver)
        else:
            self._setup_hls(driver)
        driver.start()
        chat_client = self._open_chat()

        # The Teleport tap: resolve the broadcast, then connect.
        self._api_call(
            {"request": "getBroadcasts",
             "broadcast_ids": [setup.broadcast.broadcast_id]},
            self._on_teleport, "getBroadcasts",
        )
        loop.run_until(setup.watch_seconds)
        report = self._player.finalize(setup.watch_seconds)

        # The app uploads playbackMeta after the session closes.
        playback_meta = self._playback_meta(report)
        self._api_call({"request": "playbackMeta", "stats": playback_meta},
                       None, "playbackMeta")
        end_time = setup.watch_seconds + 2.0
        loop.run_until(end_time)

        qoe = self._build_qoe(report)
        if session_span is not None:
            self._record_lifecycle_spans(telemetry, session_span, report, end_time)
        if telemetry.enabled and telemetry.metrics_on:
            self._record_session_metrics(telemetry, report)
        return SessionArtifacts(
            qoe=qoe,
            playback_meta=playback_meta,
            chat_messages=chat_client.messages_received,
            avatar_requests=chat_client.avatar_requests,
            avatar_bytes=chat_client.avatar_bytes_received,
            duplicate_avatar_downloads=chat_client.duplicate_avatar_downloads,
            total_down_bytes=tb.down_link.bytes_carried,
        )

    # ------------------------------------------------------------------- API

    def _api_handler(self, request: HttpRequest, identity: str) -> HttpResponse:
        """The API frontend: OK, unless the fault plan injects a 503."""
        if self._api_fault is not None and self._api_fault.fire():
            telemetry = obs.active()
            if telemetry.enabled and telemetry.metrics_on:
                telemetry.metrics.counter(
                    "faults_injected_total",
                    "Fault events injected across layers",
                    kind="api-5xx",
                ).inc()
            return HttpResponse(
                HttpStatus.SERVICE_UNAVAILABLE,
                json_body={"error": "Service Unavailable"},
            )
        return HttpResponse(HttpStatus.OK, json_body={"ok": True})

    def _api_call(self, json_body: dict, on_ok: Optional[Callable[[], None]],
                  kind: str) -> None:
        """Send one API request, walk the plan's retry policy on 5xx, and
        degrade gracefully (a recorded fault event) when the budget runs
        out.  Without injected faults no request fails and nothing is
        drawn."""
        request = HttpRequest("POST", API_PATH, json_body=json_body)
        schedule = RetrySchedule(
            self._plan.retry, rng=self._api_retry_rng, started_at=self.loop.now
        )
        self._api_send(request, schedule, on_ok, kind)

    def _api_send(self, request: HttpRequest, schedule: RetrySchedule,
                  on_ok: Optional[Callable[[], None]], kind: str) -> None:
        self._api_client.request(
            request, partial(self._on_api_response, request, schedule, on_ok, kind)
        )

    def _on_api_response(self, request: HttpRequest, schedule: RetrySchedule,
                         on_ok: Optional[Callable[[], None]], kind: str,
                         response: HttpResponse, now: float) -> None:
        if response.status == HttpStatus.OK:
            if on_ok is not None:
                on_ok()
            return
        delay = schedule.next_delay(now)
        if delay is None:
            self._fault_events.append(f"api-gave-up:{kind}")
            return
        self._api_retries += 1
        telemetry = obs.active()
        if telemetry.enabled and telemetry.metrics_on:
            telemetry.metrics.counter(
                "retries_total", "Client retry attempts", kind="session-api",
            ).inc()
        if telemetry.enabled and telemetry.causes_on:
            telemetry.causes.add("api.retry_backoff", delay)
        self.loop.schedule(
            delay, partial(self._api_send, request, schedule, on_ok, kind)
        )

    def _on_teleport(self) -> None:
        """getBroadcasts answered: resolve the stream, then connect."""
        self._api_call(
            {"request": "accessVideo",
             "broadcast_id": self.setup.broadcast.broadcast_id},
            self._start_media, "accessVideo",
        )

    # ------------------------------------------------------------------ chat

    def _open_chat(self) -> ChatClient:
        """The chat websocket plus the avatar fetch pool.  Joining delivers
        the recent chat history as one burst right after the websocket
        connects (avatar downloads then compete with initial video
        buffering); live messages follow at their timestamps."""
        loop = self.loop
        chat_stream = self.testbed.stream_to("chat", name="chat")
        avatar_clients = []
        for pool_index in range(AVATAR_POOL_CONNECTIONS):
            s3_stream = self.testbed.stream_to("s3", name=f"s3-{pool_index}")
            HttpServer(loop, s3_stream, _s3_handler, processing_delay_s=0.005)
            avatar_clients.append(HttpClient(loop, s3_stream))
        chat_client = ChatClient(
            loop,
            avatar_clients,
            ui_on=self.setup.chat_ui_on,
            cache_avatars=self.setup.cache_avatars,
        )
        chat_stream.on_at_a = chat_client.on_message
        feed = ChatFeed(child_rng(self._seed_key, "chat"), viewers=self._viewers)
        history_at = 0.35
        for message in feed.history():
            loop.schedule_at(history_at, partial(_push_chat, chat_stream, message, "history"))
        for message in feed.messages(self.setup.watch_seconds + 2.0):
            loop.schedule_at(message.timestamp, partial(_push_chat, chat_stream, message, "chat"))
        return chat_client

    # --------------------------------------------------------------- protocols

    def _setup_rtmp(self, driver: LiveSourceDriver) -> None:
        setup = self.setup
        down_fwd, down_rev = self.testbed.server_paths("media")
        player = RtmpPlayer(
            self.loop,
            broadcast_start=-setup.age_at_join,
            capture_clock_error_s=self._capture_clock_error,
        )
        player.set_display_fps_factor(self._display_factor())
        down_conn = Connection(
            self.loop, down_fwd, down_rev, on_message=self._rtmp_client_side,
            name="rtmp-down",
        )
        up_fwd = self.testbed.net.path("phone", "desktop", "media")
        up_rev = self.testbed.net.path("media", "desktop", "phone")
        self._rtmp_up = Connection(
            self.loop, up_fwd, up_rev, on_message=self._rtmp_server_side,
            name="rtmp-up",
        )
        self._rtmp_delivery = RtmpDelivery(RtmpPushSession(down_conn), driver)
        self._player = player
        self._start_media = self._rtmp_handshake
        reconnect_rng = child_rng(self._seed_key, "fault-reconnect")
        for window_start, window_end in self._ingest_windows:
            self.loop.schedule_at(
                window_start, partial(self._on_ingest_outage, window_end, reconnect_rng)
            )

    def _on_ingest_outage(self, window_end: float, rng: random.Random) -> None:
        """An ingest server went down mid-stream: the RTMP push stops and
        the player walks the reconnect policy.  With regional failover a
        healthy region accepts immediately; otherwise reconnects fail
        until the primary recovers at ``window_end``."""
        delivery = self._rtmp_delivery
        if not delivery.started or delivery.interrupted:
            return
        delivery.interrupt()
        telemetry = obs.active()
        if telemetry.enabled and telemetry.metrics_on:
            telemetry.metrics.counter(
                "faults_injected_total", "Fault events injected across layers",
                kind="ingest-outage",
            ).inc()
        primary = self.ingest.nearest_to(self.setup.broadcast.location)
        failover_ok = self._plan.ingest_failover and any(
            s.region != primary.region for s in self.ingest.servers
        )
        self._player.begin_reconnect(
            self._plan.retry,
            partial(_reconnect_accepted, failover_ok, window_end),
            partial(self._on_ingest_restored, self.loop.now),
            rng=rng,
        )

    def _on_ingest_restored(self, outage_began: float, now: float) -> None:
        telemetry = obs.active()
        if telemetry.enabled and telemetry.causes_on:
            telemetry.causes.add("service.outage", now - outage_began)
        self._rtmp_delivery.resume()

    def _rtmp_handshake(self) -> None:
        # C0+C1 travel to the server; the reply and the play command are
        # handled in _rtmp_server_side / _rtmp_client_side.
        self._rtmp_up.send(
            Message(payload="C0C1", nbytes=HANDSHAKE_C0 + HANDSHAKE_C1,
                    annotations={"protocol": "rtmp", "kind": "handshake"})
        )

    def _rtmp_server_side(self, message: Message, now: float) -> None:
        kind = message.payload
        delivery = self._rtmp_delivery
        if kind == "C0C1":
            # S0+S1+S2 ride the down connection ahead of any media.
            delivery.push.connection.send(
                Message(payload="S0S1S2", nbytes=HANDSHAKE_S0S1S2,
                        annotations={"protocol": "rtmp-control", "kind": "handshake"})
            )
        elif kind == "C2+play" and not delivery.started:
            delivery.start()

    def _rtmp_client_side(self, message: Message, now: float) -> None:
        if message.annotations.get("protocol") == "rtmp-control":
            # S0S1S2 arrived: finish the handshake and ask to play.
            self._rtmp_up.send(
                Message(payload="C2+play", nbytes=HANDSHAKE_C2 + 200,
                        annotations={"protocol": "rtmp", "kind": "handshake"})
            )
            return
        self._player.on_message(message, now)

    def _display_factor(self) -> float:
        device = self.setup.device
        rng = child_rng(self._seed_key, "device")
        factor = device.display_fps_factor + rng.gauss(0.0, device.display_fps_jitter)
        return min(max(factor, 0.5), 1.0)

    def _setup_hls(self, driver: LiveSourceDriver) -> None:
        setup = self.setup
        origin = HlsOrigin(self.loop, driver,
                           outage_windows=tuple(self._ingest_windows))
        playlist_stream = self.testbed.stream_to("media", name="hls-playlist")
        segment_stream = self.testbed.stream_to("media", name="hls-segments")
        HttpServer(self.loop, playlist_stream, origin.handle, processing_delay_s=0.003)
        HttpServer(self.loop, segment_stream, origin.handle, processing_delay_s=0.003)
        player = HlsPlayer(
            self.loop,
            playlist_client=HttpClient(self.loop, playlist_stream),
            segment_client=HttpClient(self.loop, segment_stream),
            playlist_path=f"/{setup.broadcast.broadcast_id}/playlist.m3u8",
            broadcast_start=-setup.age_at_join,
            capture_clock_error_s=self._capture_clock_error,
            # The pristine re-poll draws no jitter, so the rng stays unread.
            transport_retry=(HLS_TRANSPORT_RETRY if setup.faults is None
                             else setup.faults.retry),
            retry_rng=child_rng(self._seed_key, "fault-hls-retry"),
        )
        player.set_display_fps_factor(self._display_factor())
        self._player = player
        self._start_media = player.start
        # Process pre-join history once the driver has generated it.
        self.loop.schedule(0.0, origin.start)

    # ------------------------------------------------------------- telemetry

    def _open_telemetry(self, telemetry) -> Optional[obs.Span]:
        """Scope the cause ledger to this session and open its span."""
        setup = self.setup
        if telemetry.enabled and telemetry.causes_on:
            # The key is derived from the setup (never from execution
            # order), so a parallel run's per-context buckets merge back
            # into exactly the serial ledger.
            plan_key = (setup.faults.describe()
                        if setup.faults is not None else "none")
            telemetry.causes.set_context(
                f"{setup.broadcast.broadcast_id}"
                f":{setup.seed}"
                f":{setup.bandwidth_limit_mbps:g}"
                f":{plan_key}"
            )
        if telemetry.enabled and telemetry.tracing_on:
            return telemetry.tracer.begin(
                "session", sim_time=0.0,
                broadcast_id=setup.broadcast.broadcast_id,
                protocol=setup.protocol.value,
                device=setup.device.name,
                bandwidth_limit_mbps=setup.bandwidth_limit_mbps,
            )
        return None

    def _record_lifecycle_spans(self, telemetry, session_span, report,
                                end_time: float) -> None:
        """Reconstruct join → playback → stalls → teardown as sim-time
        child spans of the session span, from the playback report."""
        tracer = telemetry.tracer
        watch = self.setup.watch_seconds
        if not report.started:
            tracer.record("session.join", 0.0, end_time, parent=session_span,
                          started=False)
            tracer.end(session_span, sim_time=end_time)
            return
        tracer.record("session.join", 0.0, report.join_time_s,
                      parent=session_span)
        cursor = report.join_time_s
        for stall in sorted(report.stalls, key=lambda s: s.start):
            if stall.start > cursor:
                tracer.record("session.playback", cursor, stall.start,
                              parent=session_span)
            tracer.record("session.stall", stall.start,
                          stall.start + stall.duration, parent=session_span)
            cursor = stall.start + stall.duration
        if cursor < watch:
            tracer.record("session.playback", cursor, watch,
                          parent=session_span)
        tracer.record("session.teardown", watch, end_time,
                      parent=session_span)
        tracer.end(session_span, sim_time=end_time)

    def _record_session_metrics(self, telemetry, report) -> None:
        setup = self.setup
        metrics = telemetry.metrics
        protocol = setup.protocol.value
        limit = f"{setup.bandwidth_limit_mbps:g}"
        metrics.counter(
            "sessions_total", "Viewing sessions completed",
            protocol=protocol, limit=limit, device=setup.device.name,
        ).inc()
        metrics.histogram(
            "session_join_seconds", "Join time per session",
            protocol=protocol,
        ).observe(report.join_time_s)
        if report.started and setup.watch_seconds > 0:
            metrics.histogram(
                "session_stall_ratio",
                "Stall time share of the watch window",
                buckets=(0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0),
                protocol=protocol, limit=limit,
            ).observe(report.total_stall_s / setup.watch_seconds)
            metrics.counter(
                "session_stalls_total", "Stalls across sessions",
                protocol=protocol, limit=limit,
            ).inc(report.stall_count)

    # --------------------------------------------------------------- reporting

    def _playback_meta(self, report) -> dict:
        """What the app reports: RTMP includes stall durations, HLS only
        the stall count (Section 2)."""
        meta = {
            "protocol": self.setup.protocol.value,
            "n_stalls": report.stall_count,
        }
        if self.setup.protocol == DeliveryProtocol.RTMP:
            meta["avg_stall_s"] = (
                report.total_stall_s / report.stall_count if report.stall_count else 0.0
            )
            meta["playback_s"] = report.playback_s
            meta["latency_s"] = report.mean_playback_latency_s
        return meta

    def _build_qoe(self, report: PlaybackReport) -> SessionQoE:
        player = self._player
        frames: List[EncodedFrame] = player.video_frames
        bitrate = qp = fps = None
        if frames:
            pts = sorted(f.pts for f in frames)
            span = pts[-1] - pts[0]
            if span > 1.0:
                bitrate = sum(f.nbytes for f in frames) * 8.0 / span
            qp = sum(f.qp for f in frames) / len(frames)
            fps = player.displayed_fps(report)
        fault_events = list(self._fault_events)
        if player.gave_up:
            fault_events.append("player-gave-up")
        qoe = SessionQoE(
            broadcast_id=self.setup.broadcast.broadcast_id,
            protocol=self.setup.protocol.value,
            device=self.setup.device.name,
            bandwidth_limit_mbps=self.setup.bandwidth_limit_mbps,
            watch_seconds=self.setup.watch_seconds,
            join_time_s=report.join_time_s,
            playback_s=report.playback_s,
            stalls=report.stalls,
            playback_latency_s=report.mean_playback_latency_s,
            delivery_latency_samples=list(player.delivery_latency_samples),
            video_bitrate_bps=bitrate,
            avg_qp=qp,
            avg_fps=fps,
            avg_viewers=self._viewers,
            fault_events=fault_events,
            api_retries=self._api_retries,
            transport_retries=player.transport_retries,
            disconnects=player.disconnects,
            reconnects=player.reconnects,
            join_causes=report.join_causes,
        )
        telemetry = obs.active()
        if telemetry.enabled and telemetry.health_on:
            health = telemetry.health
            health.check(
                "qoe.consistent", qoe.consistent(),
                f"{qoe.broadcast_id}: join {qoe.join_time_s:.3f} + "
                f"playback {qoe.playback_s:.3f} + stall "
                f"{qoe.total_stall_s:.3f} != watch {qoe.watch_seconds:.3f}",
            )
            plan = self.setup.faults
            if plan is not None:
                # Three API calls per session, each bounded by the
                # shared retry budget (the test_properties bound).
                budget = 3 * plan.retry.max_attempts
                health.check(
                    "session.retries_bounded",
                    qoe.api_retries <= budget,
                    f"{qoe.broadcast_id}: {qoe.api_retries} API retries "
                    f"over budget {budget}",
                )
            else:
                health.check(
                    "session.retries_bounded", qoe.api_retries == 0,
                    f"{qoe.broadcast_id}: {qoe.api_retries} API retries "
                    f"without a fault plan",
                )
        return qoe
