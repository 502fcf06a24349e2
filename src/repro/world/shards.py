"""Shards of a population-scale world.

The broadcaster population is split into contiguous index ranges
(*shards*); :func:`compute_shard` advances one of them as a pure
function of its inputs.  This module only defines the unit — the fan-out
over :func:`repro.core.parallel.run_tasks`, and the full-fidelity runs
of each shard's promoted members, live in
:class:`repro.core.popstudy.PopulationStudy`, one layer up.  Two
properties make the split invisible:

* every random draw inside a shard is keyed by **broadcaster index**
  (see :mod:`repro.world.popularity` / :mod:`repro.world.sampler`), so
  the shard boundaries never touch an RNG stream — 1 shard and N shards
  produce byte-identical cohorts and samples;
* aggregates stay per broadcaster inside a shard, and the parent folds
  shards with :meth:`WorldResult.fold` in shard order, so the
  cross-broadcaster float fold is the same for every shard count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.util.rng import Seedable
from repro.world.cohorts import CohortAggregate, build_cohorts, cohort_aggregate
from repro.world.popularity import build_broadcast
from repro.world.sampler import (
    ExpansionRequest,
    joinable_min_duration_s,
    plan_expansions,
)

#: Shards dispatched per worker by default: enough to balance the heavy
#: tail (an "event" broadcaster's expansions cluster in one shard),
#: cheap enough that per-shard dispatch stays negligible.
SHARDS_PER_WORKER = 4


@dataclass(frozen=True)
class WorldContext:
    """Everything a shard needs, picklable and shard-count-free."""

    seed: Seedable
    watch_seconds: float
    hls_viewer_threshold: float
    #: Global sampling rate (budget / total viewers).
    sample_rate: float


@dataclass
class ShardResult:
    """One shard's outcome, merged index-ordered in the parent.

    Aggregates stay **per broadcaster** (a broadcaster is never split
    across shards): the cross-broadcaster fold happens only in the
    parent, over the same index-ordered sequence for every shard count,
    so its float operations reassociate identically — merged totals are
    byte-for-byte shard-count-invariant.
    """

    shard_index: int
    broadcasters: int
    live_broadcasters: int
    cohorts: int
    #: ``(broadcaster_index, protocol value, merged cohort aggregate)``
    #: per live broadcaster, in index order.
    broadcaster_totals: List[Tuple[int, str, CohortAggregate]] = field(
        default_factory=list
    )
    requests: List[ExpansionRequest] = field(default_factory=list)


@dataclass
class WorldResult:
    """The merged world: exact population facts, cohort aggregates, and
    the promoted members' expansion requests."""

    broadcasters: int = 0
    live_broadcasters: int = 0
    cohorts: int = 0
    shard_count: int = 0
    totals: Dict[str, CohortAggregate] = field(default_factory=dict)
    requests: List[ExpansionRequest] = field(default_factory=list)

    def fold(self, shard: ShardResult) -> None:
        self.broadcasters += shard.broadcasters
        self.live_broadcasters += shard.live_broadcasters
        self.cohorts += shard.cohorts
        self.shard_count += 1
        for _index, protocol_value, aggregate in shard.broadcaster_totals:
            into = self.totals.setdefault(protocol_value, CohortAggregate())
            into.merge(aggregate)
        self.requests.extend(shard.requests)


def shard_bounds(n_broadcasters: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` index ranges covering the population.

    Deterministic in its arguments; the parent's merge order follows
    this list, never completion order.
    """
    if n_broadcasters <= 0:
        return []
    shards = max(1, shards)
    size = max(1, math.ceil(n_broadcasters / shards))
    return [
        (start, min(start + size, n_broadcasters))
        for start in range(0, n_broadcasters, size)
    ]


def compute_shard(
    context: WorldContext,
    shard_index: int,
    start: int,
    audiences: Sequence[int],
) -> ShardResult:
    """Advance one shard: materialize broadcasters, fold cohort
    aggregates, and plan this shard's slice of the stratified sample.

    Pure function of ``(context, start, audiences)`` — the shard index
    is carried for bookkeeping only and feeds no draw.
    """
    min_duration_s = joinable_min_duration_s(context.watch_seconds)
    result = ShardResult(
        shard_index=shard_index,
        broadcasters=len(audiences),
        live_broadcasters=0,
        cohorts=0,
    )
    for offset, audience in enumerate(audiences):
        if audience <= 0:
            continue
        index = start + offset
        result.live_broadcasters += 1
        broadcast = build_broadcast(
            context.seed, index, audience, min_duration_s
        )
        broadcaster_total = CohortAggregate()
        protocol_value = ""
        for cohort in build_cohorts(
            broadcast, index, audience, context.hls_viewer_threshold
        ):
            result.cohorts += 1
            protocol_value = cohort.protocol.value
            broadcaster_total.merge(
                cohort_aggregate(broadcast, cohort, context.watch_seconds)
            )
            result.requests.extend(
                plan_expansions(
                    context.seed, cohort, context.sample_rate,
                    context.watch_seconds,
                )
            )
        result.broadcaster_totals.append(
            (index, protocol_value, broadcaster_total)
        )
    return result
