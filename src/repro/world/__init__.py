"""Population-scale worlds: the mesoscale simulation layer.

The per-packet simulator (``repro.core.session``) is exact but caps
studies at hundreds of viewers.  This package scales the same seeded
world to millions of concurrent viewers by changing *what* is simulated,
not how honestly:

* :mod:`repro.world.popularity` — a heavy-tailed broadcaster population
  (truncated-Pareto audiences, reusing :mod:`repro.util.sampling`) with
  integral largest-remainder apportionment of the viewer budget;
* :mod:`repro.world.cohorts` — viewer *cohorts* that share a delivery
  path (broadcaster x protocol x bandwidth class) and are advanced with
  closed-form fluid dynamics (join/leave mass, buffer occupancy, stall
  mass) instead of per-viewer event loops;
* :mod:`repro.world.sampler` — stratified sampling that promotes
  selected cohort members to *full-fidelity* sessions, anchoring the
  cohort approximations to the exact simulator;
* :mod:`repro.world.shards` — world state split into broadcaster-index
  shards, each advanced as a pure function and folded in index order
  (:class:`repro.core.popstudy.PopulationStudy` fans them out).

Determinism: every random draw is keyed by the broadcaster index through
:func:`repro.util.rng.child_rng` — never by shard or worker — so any
shard count and any worker count produce byte-identical results.
"""

from repro.world.cohorts import (
    BANDWIDTH_CLASSES,
    BandwidthClass,
    Cohort,
    CohortAggregate,
    build_cohorts,
    cohort_aggregate,
)
from repro.world.popularity import (
    Population,
    PopulationParameters,
    apportion,
    build_broadcast,
    sample_population,
)
from repro.world.sampler import (
    ExpansionRequest,
    joinable_min_duration_s,
    plan_expansions,
)
from repro.world.shards import ShardResult, WorldContext, WorldResult

__all__ = [
    "BANDWIDTH_CLASSES",
    "BandwidthClass",
    "Cohort",
    "CohortAggregate",
    "ExpansionRequest",
    "Population",
    "PopulationParameters",
    "ShardResult",
    "WorldContext",
    "WorldResult",
    "apportion",
    "build_broadcast",
    "build_cohorts",
    "cohort_aggregate",
    "joinable_min_duration_s",
    "plan_expansions",
    "sample_population",
]
