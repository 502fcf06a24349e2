"""Population-scale studies: the mesoscale world anchored by exact sessions.

:mod:`repro.world` advances viewer cohorts with closed-form aggregate
dynamics and plans a stratified sample of members to promote to full
fidelity.  This module drives it — the world layer sits *below* ``core``
in the layer DAG, so it neither fans out nor runs sessions itself:

* :func:`setup_for` rebuilds a sampled member's exact
  :class:`~repro.core.session.SessionSetup`;
* :class:`PopulationStudy` is the orchestration: serial population
  sampling in the parent (phase 1, exactly like
  :meth:`~repro.core.study.AutomatedViewingStudy.run_batch`), then
  shards fanned out over :func:`repro.core.parallel.run_tasks` (phase
  2).  Each task advances one shard with
  :func:`~repro.world.shards.compute_shard` and runs its promoted
  members through :func:`~repro.core.parallel.run_setups` — the same
  executor, ingest pool, faults and network path as a study batch.  The
  parent folds shards, per-session telemetry snapshots and results in
  shard order into a :class:`PopulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.automation.devices import GALAXY_S3, GALAXY_S4, DeviceProfile
from repro.core.config import StudyConfig
from repro.core.parallel import SessionResult, run_setups, run_tasks
from repro.core.session import SessionSetup
from repro.core.study import StudyDataset
from repro.faults.plan import FaultPlan
from repro.service.selection import DeliveryProtocol
from repro.util.rng import Seedable
from repro.world.cohorts import CohortAggregate
from repro.world.popularity import (
    Population,
    PopulationParameters,
    build_broadcast,
    sample_population,
)
from repro.world.sampler import ExpansionRequest, joinable_min_duration_s
from repro.world.shards import (
    SHARDS_PER_WORKER,
    ShardResult,
    WorldContext,
    WorldResult,
    compute_shard,
    shard_bounds,
)

#: Device roster by name — expansion requests carry the name (a plain
#: string pickles smaller and keeps the world layer free of automation
#: imports).
_DEVICES_BY_NAME: Dict[str, DeviceProfile] = {
    GALAXY_S3.name: GALAXY_S3,
    GALAXY_S4.name: GALAXY_S4,
}


def setup_for(
    world_seed: Seedable,
    request: ExpansionRequest,
    faults: Optional[FaultPlan] = None,
) -> SessionSetup:
    """Rebuild the exact :class:`SessionSetup` a sampled member denotes.

    Deterministic in ``(world_seed, request)``: the broadcaster is
    re-materialized from its index (same child stream, same duration
    floor as cohort formation), so the standalone setup equals the one
    the sharded world ran — the property the bit-identity suite pins.
    """
    broadcast = build_broadcast(
        world_seed,
        request.broadcaster_index,
        request.audience,
        joinable_min_duration_s(request.watch_seconds),
    )
    return SessionSetup(
        broadcast=broadcast,
        age_at_join=request.age_at_join_s,
        protocol=DeliveryProtocol(request.protocol_value),
        device=_DEVICES_BY_NAME[request.device_name],
        bandwidth_limit_mbps=request.bandwidth_limit_mbps,
        watch_seconds=request.watch_seconds,
        seed=request.session_seed,
        faults=faults,
    )


def _advance_shard(
    item,
) -> Tuple[ShardResult, List[SessionResult], List[dict]]:
    """Pool task of :meth:`PopulationStudy.run`: advance one shard, then
    run its promoted members at full fidelity, in order."""
    config, spec, context, shard_index, start, audiences = item
    shard = compute_shard(context, shard_index, start, audiences)
    setups = [
        setup_for(config.seed, request, config.faults)
        for request in shard.requests
    ]
    results, snapshots = run_setups(config, spec, setups)
    return shard, results, snapshots


@dataclass
class PopulationResult:
    """A completed population-scale study."""

    population: Population
    world: WorldResult
    #: Full-fidelity sampled sessions, in global broadcaster-index order
    #: — the same :class:`StudyDataset` shape every figure driver reads.
    sampled: StudyDataset = field(default_factory=StudyDataset)

    @property
    def totals(self) -> Dict[str, CohortAggregate]:
        return self.world.totals

    def stall_ratio(self, protocol_value: str) -> float:
        aggregate = self.world.totals.get(protocol_value)
        return aggregate.stall_ratio() if aggregate is not None else 0.0

    def mean_join_delay_s(self, protocol_value: str) -> float:
        aggregate = self.world.totals.get(protocol_value)
        if aggregate is None or aggregate.sessions <= 0.0:
            return 0.0
        return aggregate.join_seconds / aggregate.sessions


class PopulationStudy:
    """Mesoscale study driver: cohort masses + stratified exact anchors.

    Mirrors :class:`~repro.core.study.AutomatedViewingStudy`'s two-phase
    discipline: population sampling runs serially in the parent (one
    child stream per broadcaster index, then one global integral
    apportionment), and the expensive phase — broadcast materialization,
    cohort advancement, and sampled full-fidelity sessions — fans out
    over index-sharded workers.
    """

    def __init__(
        self,
        config: StudyConfig,
        params: Optional[PopulationParameters] = None,
    ) -> None:
        self.config = config
        self.params = params if params is not None else PopulationParameters()
        obs.ensure_active(metrics=config.metrics_enabled,
                          tracing=config.tracing_enabled,
                          causes=config.causes_enabled,
                          health=config.health_enabled)

    def run(self, shards: Optional[int] = None) -> PopulationResult:
        """Advance the whole world and collect the anchored sample."""
        workers = self.config.workers
        telemetry = obs.active()
        metrics_on = telemetry.enabled and telemetry.metrics_on

        # ---- phase 1: serial population sampling ------------------------
        population = sample_population(self.config.seed, self.params)
        total_viewers = population.total_viewers
        sample_rate = (
            self.params.sample_budget / total_viewers if total_viewers else 0.0
        )

        # ---- phase 2: sharded world advancement -------------------------
        # ``shards`` fixes the number of work units (default workers x
        # SHARDS_PER_WORKER); any value yields byte-identical results
        # because no draw is keyed by shard.
        context = WorldContext(
            seed=self.config.seed,
            watch_seconds=self.config.watch_seconds,
            hls_viewer_threshold=self.config.hls_viewer_threshold,
            sample_rate=sample_rate,
        )
        spec = obs.TelemetrySpec.of(telemetry)
        audiences = population.viewers_by_broadcaster
        bounds = shard_bounds(
            len(audiences),
            shards if shards is not None else max(1, workers) * SHARDS_PER_WORKER,
        )
        tasks = [
            (self.config, spec, context, shard_index, start,
             audiences[start:stop])
            for shard_index, (start, stop) in enumerate(bounds)
        ]
        world = WorldResult()
        sampled = StudyDataset()
        # Shard order, never completion order: pooled worlds match inline
        # ones byte for byte.
        for shard, results, snapshots in run_tasks(
            _advance_shard, tasks, workers=workers
        ):
            world.fold(shard)
            for snapshot in snapshots:
                telemetry.merge(snapshot)
            for result in results:
                sampled.add(result)

        if metrics_on:
            metrics = telemetry.metrics
            metrics.counter(
                "population_viewers_total",
                "Concurrent viewers advanced in cohort form",
            ).inc(total_viewers)
            metrics.counter(
                "population_broadcasters_total",
                "Broadcasters materialized for cohort advancement",
            ).inc(population.n_broadcasters)
            metrics.counter(
                "population_sampled_sessions_total",
                "Cohort members promoted to full-fidelity sessions",
            ).inc(len(sampled.sessions))

        return PopulationResult(
            population=population, world=world, sampled=sampled
        )
