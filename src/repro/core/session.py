"""One automated viewing session, end to end.

Reproduces the paper's adb loop for a single broadcast: tap Teleport,
resolve the broadcast through the API, connect over the selected
protocol, watch for exactly 60 seconds with the chat pane visible (the
app's default), then close, and the app finally uploads its playbackMeta
statistics.  The download volume is the tether download link's wire-byte
counter; a caller that wants the tcpdump trace calls
``session.testbed.start_capture()`` before :meth:`ViewingSession.run`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import obs
from repro.automation.devices import DeviceProfile
from repro.automation.ntp import BROADCASTER_PHONE_CLOCK, CAPTURE_DESKTOP_CLOCK
from repro.automation.shaping import shaper_for_limit
from repro.core.qoe import SessionQoE
from repro.core.testbed import SessionTestbed, TestbedConfig, VIEWER_LOCATION
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetrySchedule
from repro.media.frames import EncodedFrame
from repro.netsim.connection import Connection, Message
from repro.netsim.events import EventLoop
from repro.player.chat_client import ChatClient
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
from repro.service.broadcast import Broadcast
from repro.service.chat import ChatFeed
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


class ViewingSession:
    """Builds the testbed, runs the 60 s watch, and reports QoE."""

    def __init__(self, setup: SessionSetup, ingest: Optional[IngestPool] = None) -> None:
        self.setup = setup
        seed = (setup.seed, setup.broadcast.broadcast_id)
        self._rng = child_rng(seed, "session")
        self.ingest = ingest or IngestPool(child_rng(seed, "ingest"))
        self.loop = EventLoop()
        self.testbed = SessionTestbed(
            self.loop,
            TestbedConfig(
                shaper=shaper_for_limit(setup.bandwidth_limit_mbps),
                faults=setup.faults,
                fault_seed=seed,
                fault_horizon_s=setup.watch_seconds + 10.0,
            ),
        )
        self._capture_clock_error = CAPTURE_DESKTOP_CLOCK.sample_offset(
            child_rng(seed, "capture-clock")
        )
        self._broadcaster_clock_error = BROADCASTER_PHONE_CLOCK.sample_offset(
            child_rng(seed, "broadcaster-clock")
        )
        self._viewers = setup.broadcast.viewers_at(
            setup.broadcast.start_time + setup.age_at_join
        )
        self._player: Optional[object] = None
        self._rtmp_push: Optional[RtmpPushSession] = None
        self._rtmp_delivery: Optional[RtmpDelivery] = None
        self._delivery_started = False
        self._fault_events: List[str] = []
        self._api_retries = 0
        self._ingest_windows: List[Tuple[float, float]] = []

    # -------------------------------------------------------------- topology

    def _media_server_location(self) -> GeoPoint:
        if self.setup.protocol == DeliveryProtocol.RTMP:
            return self.ingest.nearest_to(self.setup.broadcast.location).location
        return nearest_cdn_edge(VIEWER_LOCATION).location

    # ------------------------------------------------------------------- run

    def run(self) -> SessionArtifacts:
        setup = self.setup
        loop = self.loop
        tb = self.testbed
        telemetry = obs.active()
        if telemetry.enabled and telemetry.causes_on:
            # Scope the attribution ledger to this session.  The key is
            # derived from the setup (never from execution order), so a
            # parallel run's per-context buckets merge back into exactly
            # the serial ledger.
            plan_key = (setup.faults.describe()
                        if setup.faults is not None else "none")
            telemetry.causes.set_context(
                f"{setup.broadcast.broadcast_id}"
                f":{setup.seed}"
                f":{setup.bandwidth_limit_mbps:g}"
                f":{plan_key}"
            )
        session_span = None
        if telemetry.enabled and telemetry.tracing_on:
            session_span = telemetry.tracer.begin(
                "session", sim_time=0.0,
                broadcast_id=setup.broadcast.broadcast_id,
                protocol=setup.protocol.value,
                device=setup.device.name,
                bandwidth_limit_mbps=setup.bandwidth_limit_mbps,
            )
        tb.add_server("api", API_LOCATION)
        tb.add_server("media", self._media_server_location())
        tb.add_server("chat", CHAT_LOCATION)
        tb.add_server("s3", S3_LOCATION)

        history = RTMP_HISTORY_S if setup.protocol == DeliveryProtocol.RTMP else HLS_HISTORY_S
        driver = LiveSourceDriver(
            loop,
            setup.broadcast,
            age_at_join=setup.age_at_join,
            horizon_s=setup.watch_seconds + 5.0,
            generate_from=max(0.0, setup.age_at_join - history),
            broadcaster_clock_offset_s=self._broadcaster_clock_error,
        )

        # --- fault plan ----------------------------------------------------
        plan = setup.faults
        seed = (setup.seed, setup.broadcast.broadcast_id)
        api_fault = None
        api_retry_rng = None
        if plan is not None and plan.has_api_faults:
            api_fault = plan.api_injector(child_rng(seed, "fault-api"))
        if plan is not None:
            api_retry_rng = child_rng(seed, "fault-api-retry")
        if plan is not None and plan.has_ingest_faults:
            self._ingest_windows = plan.ingest_windows(
                child_rng(seed, "fault-ingest"), setup.watch_seconds
            )
            for window_start, _window_end in self._ingest_windows:
                self._fault_events.append(f"ingest-outage@{window_start:.2f}")

        # --- API frontend -------------------------------------------------
        api_stream = tb.stream_to("api", name="api")
        api_responses = {"count": 0}

        def api_handler(request: HttpRequest, identity: str) -> HttpResponse:
            if api_fault is not None and api_fault.fire():
                tel = obs.active()
                if tel.enabled and tel.metrics_on:
                    tel.metrics.counter(
                        "faults_injected_total",
                        "Fault events injected across layers",
                        kind="api-5xx",
                    ).inc()
                return HttpResponse(
                    HttpStatus.SERVICE_UNAVAILABLE,
                    json_body={"error": "Service Unavailable"},
                )
            api_responses["count"] += 1
            return HttpResponse(HttpStatus.OK, json_body={"ok": True})

        HttpServer(loop, api_stream, api_handler, processing_delay_s=0.030)
        api_client = HttpClient(loop, api_stream)

        def api_call(json_body: dict, on_ok, kind: str) -> None:
            """Issue one API request; with a fault plan active, walk the
            shared retry policy on 5xx and degrade gracefully (a recorded
            fault event) when the budget runs out."""
            request = HttpRequest("POST", "/api/v2/apiRequest", json_body=json_body)
            if plan is None:
                api_client.request(request, on_ok)
                return
            schedule = RetrySchedule(
                plan.retry, rng=api_retry_rng, started_at=loop.now
            )

            def send() -> None:
                api_client.request(request, on_response)

            def on_response(response: HttpResponse, now: float) -> None:
                if response.status != HttpStatus.OK:
                    delay = schedule.next_delay(now)
                    if delay is None:
                        self._fault_events.append(f"api-gave-up:{kind}")
                        return
                    self._api_retries += 1
                    tel = obs.active()
                    if tel.enabled and tel.metrics_on:
                        tel.metrics.counter(
                            "retries_total", "Client retry attempts",
                            kind="session-api",
                        ).inc()
                    if tel.enabled and tel.causes_on:
                        tel.causes.add("api.retry_backoff", delay)
                    loop.schedule(delay, send)
                    return
                on_ok(response, now)

            send()

        # --- media path ----------------------------------------------------
        if setup.protocol == DeliveryProtocol.RTMP:
            self._setup_rtmp(driver)
        else:
            self._setup_hls(driver)

        driver.start()

        # --- chat ----------------------------------------------------------
        chat_stream = tb.stream_to("chat", name="chat")

        def s3_handler(request: HttpRequest, identity: str) -> HttpResponse:
            nbytes = int(request.headers.get("x-size", "30000"))
            return HttpResponse(HttpStatus.OK, body_bytes=nbytes)

        from repro.player.chat_client import AVATAR_POOL_CONNECTIONS

        avatar_clients = []
        for pool_index in range(AVATAR_POOL_CONNECTIONS):
            s3_stream = tb.stream_to("s3", name=f"s3-{pool_index}")
            HttpServer(loop, s3_stream, s3_handler, processing_delay_s=0.005)
            avatar_clients.append(HttpClient(loop, s3_stream))
        chat_client = ChatClient(
            loop,
            avatar_clients,
            ui_on=setup.chat_ui_on,
            cache_avatars=setup.cache_avatars,
        )
        chat_stream.on_at_a = chat_client.on_message
        feed = ChatFeed(child_rng((setup.seed, setup.broadcast.broadcast_id), "chat"),
                        viewers=self._viewers)
        # Joining delivers the recent chat history as one burst (avatar
        # downloads then compete with initial video buffering).
        history_at = 0.35  # right after the websocket connects
        for chat_msg in feed.history():
            loop.schedule_at(
                history_at,
                lambda m=chat_msg: (
                    None
                    if chat_stream.closed
                    else chat_stream.send_from_b(
                        Message(
                            payload=m,
                            nbytes=m.frame_bytes(),
                            annotations={"protocol": "websocket", "kind": "history"},
                        )
                    )
                ),
            )
        for chat_msg in feed.messages(setup.watch_seconds + 2.0):
            loop.schedule_at(
                chat_msg.timestamp,
                lambda m=chat_msg: (
                    None
                    if chat_stream.closed
                    else chat_stream.send_from_b(
                        Message(
                            payload=m,
                            nbytes=m.frame_bytes(),
                            annotations={"protocol": "websocket", "kind": "chat"},
                        )
                    )
                ),
            )

        # --- the Teleport tap: API exchange, then connect ------------------
        def on_access_video(response: HttpResponse, now: float) -> None:
            self._begin_media(now)

        def on_teleport(response: HttpResponse, now: float) -> None:
            api_call(
                {"request": "accessVideo",
                 "broadcast_id": setup.broadcast.broadcast_id},
                on_access_video,
                kind="accessVideo",
            )

        api_call(
            {"request": "getBroadcasts",
             "broadcast_ids": [setup.broadcast.broadcast_id]},
            on_teleport,
            kind="getBroadcasts",
        )

        # --- run the watch --------------------------------------------------
        loop.run_until(setup.watch_seconds)
        report = self._player.finalize(setup.watch_seconds)

        # The app uploads playbackMeta after the session closes.
        playback_meta = self._playback_meta(report)
        api_call(
            {"request": "playbackMeta", "stats": playback_meta},
            lambda resp, t: None,
            kind="playbackMeta",
        )
        loop.run_until(setup.watch_seconds + 2.0)

        qoe = self._build_qoe(report)
        if telemetry.enabled:
            end_time = setup.watch_seconds + 2.0
            if session_span is not None:
                self._record_lifecycle_spans(telemetry, session_span, report,
                                             end_time)
            if telemetry.metrics_on:
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

    # --------------------------------------------------------------- protocols

    def _begin_media(self, now: float) -> None:
        """API resolution done: connect to the media server."""
        if self.setup.protocol == DeliveryProtocol.RTMP:
            self._rtmp_handshake()
        else:
            self._hls_player.start()

    def _setup_rtmp(self, driver: LiveSourceDriver) -> None:
        setup = self.setup
        down_fwd, down_rev = self.testbed.server_paths("media")
        player = RtmpPlayer(
            self.loop,
            broadcast_start=-setup.age_at_join,
            capture_clock_error_s=self._capture_clock_error,
        )
        player.set_display_fps_factor(self._display_factor())
        def client_side(message: Message, now: float) -> None:
            if message.annotations.get("protocol") == "rtmp-control":
                # S0S1S2 arrived: finish the handshake and ask to play.
                self._rtmp_up.send(
                    Message(payload="C2+play", nbytes=HANDSHAKE_C2 + 200,
                            annotations={"protocol": "rtmp", "kind": "handshake"})
                )
                return
            player.on_message(message, now)

        down_conn = Connection(
            self.loop, down_fwd, down_rev, on_message=client_side,
            name="rtmp-down",
        )
        up_fwd = self.testbed.net.path("phone", "desktop", "media")
        up_rev = self.testbed.net.path("media", "desktop", "phone")
        self._rtmp_up = Connection(
            self.loop, up_fwd, up_rev, on_message=self._rtmp_server_side,
            name="rtmp-up",
        )
        self._rtmp_push = RtmpPushSession(down_conn)
        self._rtmp_delivery = RtmpDelivery(self._rtmp_push, driver)
        self._player = player
        self._handshake_stage = 0
        if self._ingest_windows:
            reconnect_rng = child_rng(
                (setup.seed, setup.broadcast.broadcast_id), "fault-reconnect"
            )
            for window in self._ingest_windows:
                self.loop.schedule_at(
                    window[0],
                    lambda w=window, r=reconnect_rng: self._on_ingest_outage(
                        w[0], w[1], r
                    ),
                )

    def _on_ingest_outage(self, window_start: float, window_end: float,
                          rng: random.Random) -> None:
        """An ingest server went down mid-stream: the RTMP push stops and
        the player walks the reconnect policy.  With regional failover a
        healthy region accepts immediately; otherwise reconnects fail
        until the primary recovers at ``window_end``."""
        delivery = self._rtmp_delivery
        if delivery is None or not delivery.started or delivery.interrupted:
            return
        delivery.interrupt()
        telemetry = obs.active()
        if telemetry.enabled and telemetry.metrics_on:
            telemetry.metrics.counter(
                "faults_injected_total", "Fault events injected across layers",
                kind="ingest-outage",
            ).inc()
        plan = self.setup.faults
        assert plan is not None
        primary = self.ingest.nearest_to(self.setup.broadcast.location)
        failover_ok = plan.ingest_failover and any(
            s.region != primary.region for s in self.ingest.servers
        )

        def probe(now: float) -> bool:
            return failover_ok or now >= window_end

        outage_began = self.loop.now

        def on_restored(now: float) -> None:
            tel = obs.active()
            if tel.enabled and tel.causes_on:
                tel.causes.add("service.outage", now - outage_began)
            delivery.resume()

        self._player.begin_reconnect(plan.retry, probe, on_restored, rng=rng)

    def _rtmp_handshake(self) -> None:
        # C0+C1 travel to the server; the reply and the play command are
        # handled in _rtmp_server_side / _rtmp_client_side.
        self._rtmp_up.send(
            Message(payload="C0C1", nbytes=HANDSHAKE_C0 + HANDSHAKE_C1,
                    annotations={"protocol": "rtmp", "kind": "handshake"})
        )

    def _rtmp_server_side(self, message: Message, now: float) -> None:
        kind = message.payload
        if kind == "C0C1":
            # S0+S1+S2 ride the down connection ahead of any media.
            assert self._rtmp_push is not None
            self._rtmp_push.connection.send(
                Message(payload="S0S1S2", nbytes=HANDSHAKE_S0S1S2,
                        annotations={"protocol": "rtmp-control", "kind": "handshake"})
            )
        elif kind == "C2+play":
            if not self._delivery_started:
                self._delivery_started = True
                self._rtmp_delivery.start()

    def _display_factor(self) -> float:
        device = self.setup.device
        rng = child_rng((self.setup.seed, self.setup.broadcast.broadcast_id), "device")
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
        player_kwargs = {}
        if setup.faults is not None:
            player_kwargs = {
                "transport_retry": setup.faults.retry,
                "retry_rng": child_rng(
                    (setup.seed, setup.broadcast.broadcast_id), "fault-hls-retry"
                ),
            }
        player = HlsPlayer(
            self.loop,
            playlist_client=HttpClient(self.loop, playlist_stream),
            segment_client=HttpClient(self.loop, segment_stream),
            playlist_path=f"/{setup.broadcast.broadcast_id}/playlist.m3u8",
            broadcast_start=-setup.age_at_join,
            capture_clock_error_s=self._capture_clock_error,
            **player_kwargs,
        )
        player.set_display_fps_factor(self._display_factor())
        self._hls_origin = origin
        self._hls_player = player
        self._player = player
        # Process pre-join history once the driver has generated it.
        self.loop.schedule(0.0, origin.start)

    # ------------------------------------------------------------- telemetry

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

    def _build_qoe(self, report) -> SessionQoE:
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
        if getattr(player, "gave_up", False) or getattr(
            player, "reconnect_gave_up", False
        ):
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
            transport_retries=getattr(player, "transport_retries", 0),
            disconnects=getattr(player, "disconnects", 0),
            reconnects=getattr(player, "reconnects", 0),
            join_causes=getattr(report, "join_causes", None),
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
