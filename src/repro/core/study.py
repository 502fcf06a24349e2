"""Dataset 2: the automated-viewing study (Section 5).

Drives the adb Teleport loop against the simulated service: each session
teleports to a (popularity-biased) random broadcast, watches 60 seconds,
and records QoE.  The study alternates the two phones, advances the
service world between sessions, and runs the ``tc`` bandwidth sweep the
paper uses for Figures 3(b) and 4.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.automation.devices import GALAXY_S3, GALAXY_S4, DeviceProfile
from repro.core.config import StudyConfig
from repro.core.parallel import SessionResult, run_sessions
from repro.core.qoe import SessionQoE
from repro.core.session import SessionArtifacts, SessionSetup, ViewingSession
from repro.netsim import fastpath
from repro.service.ingest import IngestPool
from repro.service.selection import DeliveryProtocol, select_protocol
from repro.service.world import ServiceWorld, WorldParameters
from repro.util.rng import child_rng

#: Wall time between session starts in the adb loop: 60 s watch + app
#: navigation overhead.
SESSION_CADENCE_S = 70.0


@dataclass
class StudyDataset:
    """Everything the automated-viewing harness collected."""

    sessions: List[SessionQoE] = field(default_factory=list)
    #: Aggregate traffic facts per session (chat/avatar accounting).
    avatar_bytes: List[int] = field(default_factory=list)
    down_bytes: List[int] = field(default_factory=list)
    #: Sessions requested but never sampled: the teleport retry budget
    #: ran out (scaled-down worlds with few live broadcasts).  Figure
    #: drivers should report this instead of silently plotting a
    #: truncated sample.
    shortfall: int = 0

    def by_protocol(self, protocol: str) -> List[SessionQoE]:
        return [s for s in self.sessions if s.protocol == protocol]

    def by_device(self, device: str) -> List[SessionQoE]:
        return [s for s in self.sessions if s.device == device]

    def by_limit(self, limit_mbps: float) -> List[SessionQoE]:
        # Tolerant match: sweep points are often computed (0.1 * 5 is not
        # 0.5 exactly), and exact float == would silently drop them.
        return [
            s for s in self.sessions
            if math.isclose(s.bandwidth_limit_mbps, limit_mbps,
                            rel_tol=1e-9, abs_tol=1e-12)
        ]

    def add(self, result: SessionResult) -> None:
        """Append one session's pooled result."""
        self.sessions.append(result.qoe)
        self.avatar_bytes.append(result.avatar_bytes)
        self.down_bytes.append(result.down_bytes)

    def extend(self, other: "StudyDataset") -> None:
        self.sessions.extend(other.sessions)
        self.avatar_bytes.extend(other.avatar_bytes)
        self.down_bytes.extend(other.down_bytes)
        self.shortfall += other.shortfall


class AutomatedViewingStudy:
    """The paper's measurement harness, reborn against the simulator."""

    def __init__(self, config: StudyConfig) -> None:
        self.config = config
        obs.ensure_active(metrics=config.metrics_enabled,
                          tracing=config.tracing_enabled,
                          causes=config.causes_enabled,
                          health=config.health_enabled)
        self.world = ServiceWorld(
            WorldParameters(mean_concurrent=config.scaled(config.concurrent_broadcasts,
                                                          minimum=600)),
            seed=config.seed,
        )
        self.ingest = IngestPool(child_rng(config.seed, "ingest-pool"))
        self._teleport_rng = child_rng(config.seed, "teleport")
        self._session_counter = 0
        #: Recently watched ids, so the scaled-down world does not keep
        #: resampling its handful of popular broadcasts.
        self._recently_watched: List[str] = []

    # ------------------------------------------------------------- sampling

    def _next_setup(
        self,
        bandwidth_limit_mbps: float,
        chat_ui_on: bool = True,
        cache_avatars: bool = False,
        forced_protocol: Optional[DeliveryProtocol] = None,
    ) -> Optional[SessionSetup]:
        """Advance the world one cadence step and teleport."""
        self._session_counter += 1
        self.world.advance_to(self.world.now + SESSION_CADENCE_S)
        broadcast = self.world.teleport(
            self._teleport_rng, exclude=set(self._recently_watched)
        )
        if broadcast is None:
            return None
        self._recently_watched.append(broadcast.broadcast_id)
        if len(self._recently_watched) > 8:
            self._recently_watched.pop(0)
        age = self.world.now - broadcast.start_time
        remaining = broadcast.end_time - self.world.now
        if remaining < 5.0 or age <= 0.5:
            # The app would land on a dying/new broadcast; the loop just
            # teleports again, as ours does via the caller's retry.
            return None
        protocol = forced_protocol or select_protocol(
            broadcast, self.world.now, self.config.hls_viewer_threshold
        )
        device = GALAXY_S3 if self._session_counter % 2 == 0 else GALAXY_S4
        return SessionSetup(
            broadcast=broadcast,
            age_at_join=age,
            protocol=protocol,
            device=device,
            bandwidth_limit_mbps=bandwidth_limit_mbps,
            watch_seconds=self.config.watch_seconds,
            chat_ui_on=chat_ui_on,
            cache_avatars=cache_avatars,
            seed=child_rng(self.config.seed, "session", self._session_counter)
            .getrandbits(48),
            faults=self.config.faults,
        )

    def run_session(self, setup: SessionSetup) -> SessionArtifacts:
        """Execute one prepared session."""
        return ViewingSession(setup, ingest=self.ingest).run()

    # ----------------------------------------------------------------- runs

    def run_batch(
        self,
        n_sessions: int,
        bandwidth_limit_mbps: float = 100.0,
        chat_ui_on: bool = True,
        cache_avatars: bool = False,
        forced_protocol: Optional[DeliveryProtocol] = None,
        workers: Optional[int] = None,
    ) -> StudyDataset:
        """Run ``n_sessions`` Teleport sessions at one bandwidth limit.

        Two phases.  **Sampling** always runs serially on this thread:
        world evolution and the teleport RNG are the only order-sensitive
        state, so the sampled setups are identical for every worker
        count.  **Execution** runs the sampled sessions either inline
        (``workers`` <= 1) or fanned out over a process pool
        (:mod:`repro.core.parallel`); each session is hermetic given its
        setup, so both paths produce bit-identical datasets.
        """
        workers = self.config.workers if workers is None else workers
        telemetry = obs.active()
        metrics_on = telemetry.enabled and telemetry.metrics_on
        limit_label = f"{bandwidth_limit_mbps:g}"

        # ---- phase 1: serial sampling -----------------------------------
        setups: List[SessionSetup] = []
        attempts = 0
        while len(setups) < n_sessions and attempts < n_sessions * 4:
            attempts += 1
            setup = self._next_setup(
                bandwidth_limit_mbps,
                chat_ui_on=chat_ui_on,
                cache_avatars=cache_avatars,
                forced_protocol=forced_protocol,
            )
            if metrics_on:
                telemetry.metrics.counter(
                    "study_teleport_attempts_total",
                    "Teleport attempts (incl. dead/new-broadcast retries)",
                    limit=limit_label,
                ).inc()
            if setup is not None:
                setups.append(setup)

        dataset = StudyDataset()
        if len(setups) < n_sessions:
            dataset.shortfall = n_sessions - len(setups)
            warnings.warn(
                f"study batch shortfall: sampled {len(setups)} of "
                f"{n_sessions} sessions at {limit_label} Mbps before the "
                f"teleport retry budget ({n_sessions * 4} attempts) ran "
                f"out; the world has too few live broadcasts",
                RuntimeWarning,
                stacklevel=2,
            )
            if metrics_on:
                telemetry.metrics.counter(
                    "study_batch_shortfall_total",
                    "Requested sessions the teleport retry budget "
                    "could not sample",
                    limit=limit_label,
                ).inc(dataset.shortfall)

        # ---- phase 2: session execution ---------------------------------
        if workers > 1 and len(setups) > 1:
            results, snapshots = run_sessions(
                self.config, obs.TelemetrySpec.of(telemetry), setups,
                workers=workers,
            )
            for snapshot in snapshots:
                telemetry.merge(snapshot)
            for result in results:
                dataset.add(result)
            if metrics_on and results:
                self._count_sessions(telemetry, limit_label, dataset,
                                     len(results))
            return dataset
        # The network-path switch scopes to execution only: sampling never
        # builds connections, and restoring the previous value keeps a
        # study from leaking its mode into the caller's process state.
        with fastpath.exact_network(self.config.exact_network):
            for setup in setups:
                artifacts = self.run_session(setup)
                dataset.sessions.append(artifacts.qoe)
                dataset.avatar_bytes.append(artifacts.avatar_bytes)
                dataset.down_bytes.append(artifacts.total_down_bytes)
                if metrics_on:
                    self._count_sessions(telemetry, limit_label, dataset, 1)
        return dataset

    @staticmethod
    def _count_sessions(telemetry, limit_label, dataset, completed) -> None:
        """Record ``completed`` more sessions toward the limit's target."""
        metrics = telemetry.metrics
        metrics.counter(
            "study_sessions_total", "Study sessions completed",
            limit=limit_label,
        ).inc(completed)
        metrics.gauge(
            "study_limit_progress",
            "Sessions completed toward the per-limit target",
            limit=limit_label,
        ).set(float(len(dataset.sessions)))

    def run_unlimited(self, n_sessions: Optional[int] = None) -> StudyDataset:
        """The unshaped dataset (paper: 1796 RTMP + 1586 HLS sessions)."""
        count = n_sessions if n_sessions is not None else self.config.scaled(
            self.config.rtmp_sessions_unlimited + self.config.hls_sessions_unlimited,
            minimum=20,
        )
        return self.run_batch(count, bandwidth_limit_mbps=100.0)

    def run_bandwidth_sweep(
        self,
        sessions_per_limit: Optional[int] = None,
        limits_mbps: Optional[Sequence[float]] = None,
    ) -> Dict[float, StudyDataset]:
        """The tc sweep of Figures 3(b) and 4."""
        per_limit = sessions_per_limit if sessions_per_limit is not None else max(
            6, self.config.scaled(self.config.sessions_per_limit, minimum=6)
        )
        limits = list(limits_mbps if limits_mbps is not None
                      else self.config.bandwidth_limits_mbps)
        return {
            limit: self.run_batch(per_limit, bandwidth_limit_mbps=limit)
            for limit in limits
        }
