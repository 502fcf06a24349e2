"""Campaign descriptions: what to run, decomposed into memoizable cells.

A :class:`CampaignSpec` is the user-facing description — primitives
only, so it round-trips through ``campaign.json`` — and
:func:`plan_cells` resolves it into the ordered grid of
:class:`CellSpec` units the runner executes.  A cell is the memoization
quantum: one ``(seed, config-cell)`` pair whose fully-resolved
description hashes to its store key (:func:`cell_key`), and whose
execution is hermetic — a fresh study world, sessions derived from the
cell's own seed tree, no state shared with other cells.

Two cell kinds:

* ``"sweep"`` — one :meth:`~repro.core.study.AutomatedViewingStudy.run_batch`
  at one bandwidth limit (the paper's tc-sweep shape);
* ``"population"`` — one :class:`~repro.core.popstudy.PopulationStudy`
  world advance (the PR-9 mesoscale layer) at a viewer count.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaign.hashing import SCHEMA_VERSION, content_hash
from repro.core.config import StudyConfig
from repro.faults.plan import FaultPlan

SWEEP = "sweep"
POPULATION = "population"
_KINDS = (SWEEP, POPULATION)


@dataclass(frozen=True)
class CampaignSpec:
    """The primitive-typed campaign description stored in ``campaign.json``.

    ``faults`` stays in its CLI grammar (see :meth:`FaultPlan.parse`)
    rather than as a nested object so the JSON round-trip is trivial;
    it is resolved once, in :func:`plan_cells`.
    """

    kind: str = SWEEP
    seeds: Tuple[int, ...] = (2016,)
    #: Sweep cells: one per (seed, limit).
    limits_mbps: Tuple[float, ...] = (0.5, 2.0, 100.0)
    sessions_per_cell: int = 4
    #: Population cells: one per seed at this viewer count.
    viewers: int = 100_000
    sample_budget: int = 16
    #: Resolved into every cell's StudyConfig.
    watch_seconds: float = 60.0
    scale: float = 0.05
    faults: str = ""
    causes_enabled: bool = False
    health_enabled: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown campaign kind {self.kind!r}")
        if not self.seeds:
            raise ValueError("a campaign needs at least one seed")
        if self.kind == SWEEP and not self.limits_mbps:
            raise ValueError("a sweep campaign needs at least one limit")
        if self.sessions_per_cell < 1:
            raise ValueError("sessions_per_cell must be positive")

    # ------------------------------------------------------------- round trip

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["seeds"] = list(self.seeds)
        payload["limits_mbps"] = list(self.limits_mbps)
        payload["schema_version"] = SCHEMA_VERSION
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        # Keys that are not fields (``schema_version``, or a field an
        # older spec had) are dropped, so older campaign.json files read.
        fields = {field.name for field in dataclasses.fields(cls)}
        payload = {key: value for key, value in json.loads(text).items()
                   if key in fields}
        payload["seeds"] = tuple(payload.get("seeds", ()))
        payload["limits_mbps"] = tuple(payload.get("limits_mbps", ()))
        return cls(**payload)


@dataclass(frozen=True)
class CellSpec:
    """One fully-resolved memoization unit.

    Everything that determines the result is *in here* (the config
    carries the cell's seed and fault plan), so
    :func:`~repro.campaign.hashing.content_hash` over this dataclass is
    the complete story of the bytes the cell will produce —
    ``config.workers`` excepted, which the hash skips and the executor
    normalizes to 1 anyway.
    """

    kind: str
    config: StudyConfig
    #: Sweep cells.
    n_sessions: int = 0
    bandwidth_limit_mbps: float = 100.0
    #: Population cells.
    viewers: int = 0
    sample_budget: int = 0

    @property
    def seed(self) -> int:
        return self.config.seed

    def label(self) -> str:
        """Stable human-readable cell name for journals and status."""
        if self.kind == SWEEP:
            return f"seed={self.seed} limit={self.bandwidth_limit_mbps:g}"
        return f"seed={self.seed} viewers={self.viewers}"


def cell_key(cell: CellSpec) -> str:
    """The content-addressed store key of one cell."""
    return content_hash(cell)


def resolve_config(spec: CampaignSpec, seed: int) -> StudyConfig:
    """The fully-resolved per-cell study config.

    Telemetry capture is the campaign runner's job (it snapshots every
    cell's registry itself), so ``metrics_enabled`` stays off here and
    the cause/health surfaces follow the spec.  ``workers`` is pinned to
    1: cells parallelize across the campaign pool, never inside.
    """
    faults: Optional[FaultPlan] = None
    if spec.faults:
        faults = FaultPlan.parse(spec.faults)
        if faults.empty:
            faults = None
    return StudyConfig(
        seed=seed,
        scale=spec.scale,
        workers=1,
        watch_seconds=spec.watch_seconds,
        faults=faults,
        causes_enabled=spec.causes_enabled,
        health_enabled=spec.health_enabled,
    )


def plan_cells(spec: CampaignSpec) -> List[CellSpec]:
    """The ordered cell grid: seed-major, limit-minor.

    The order is part of the campaign's semantics — final artifacts
    merge cell results in plan order, so the plan must be a pure
    function of the spec.
    """
    cells: List[CellSpec] = []
    for seed in spec.seeds:
        config = resolve_config(spec, seed)
        if spec.kind == SWEEP:
            for limit in spec.limits_mbps:
                cells.append(CellSpec(
                    kind=SWEEP,
                    config=config,
                    n_sessions=spec.sessions_per_cell,
                    bandwidth_limit_mbps=limit,
                ))
        else:
            cells.append(CellSpec(
                kind=POPULATION,
                config=config,
                viewers=spec.viewers,
                sample_budget=spec.sample_budget,
            ))
    return cells


def plan_keys(spec: CampaignSpec) -> Dict[str, CellSpec]:
    """Key -> cell for the whole plan (keys are unique: the seed and the
    cell parameters are all inside the hashed description)."""
    plan = plan_cells(spec)
    keyed = {cell_key(cell): cell for cell in plan}
    if len(keyed) != len(plan):
        raise ValueError("campaign plan contains duplicate cells")
    return keyed
