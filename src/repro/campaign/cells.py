"""Cell execution: the hermetic unit a campaign memoizes.

:func:`execute_cell` is a module-level callable — pickled *by
reference* into :func:`repro.core.parallel.run_tasks` workers — that
turns one :class:`~repro.campaign.spec.CellSpec` into the canonical
result blob.  The blob is the pickle (pinned protocol, see
:data:`BLOB_PICKLE_PROTOCOL`) of a :class:`CellResult`: the dataset
plus the cell's private telemetry snapshots.

Determinism contract: the blob bytes are a pure function of the cell
description.  The executor builds a fresh study world from the cell's
config, runs it with ``workers=1`` (campaign parallelism is *across*
cells), and captures telemetry in a scoped registry — so executing the
same cell inline, in a pool worker, or in a different process after a
crash produces byte-identical blobs, which is exactly what makes
content-addressed memoization sound.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import obs
from repro.campaign.spec import POPULATION, SWEEP
from repro.core.popstudy import PopulationStudy
from repro.core.study import AutomatedViewingStudy, StudyDataset
from repro.world.popularity import PopulationParameters

#: Pinned so blob bytes do not depend on the interpreter's default
#: protocol (which moved 4 -> 5 across supported Python versions).
BLOB_PICKLE_PROTOCOL = 4


@dataclass
class CellResult:
    """What one cell computed; the unit stored under the cell's key."""

    key: str
    label: str
    dataset: StudyDataset
    #: Population cells also ship the cohort aggregate totals
    #: (protocol value -> CohortAggregate).
    totals: Optional[dict] = None
    #: Surface name ("metrics"/"causes"/"health") -> snapshot dict.
    snapshots: Dict[str, dict] = field(default_factory=dict)


def encode_result(result: CellResult) -> bytes:
    return pickle.dumps(result, protocol=BLOB_PICKLE_PROTOCOL)


def decode_result(data: bytes) -> CellResult:
    return pickle.loads(data)


def execute_cell(item) -> bytes:
    """Run one ``(key, cell)`` pair and return its canonical blob bytes."""
    key, cell = item
    config = dataclasses.replace(cell.config, workers=1)
    spec = obs.TelemetrySpec(metrics=True, causes=config.causes_enabled,
                             health=config.health_enabled)
    totals: Optional[dict] = None
    with obs.capture(spec) as snapshots:
        if cell.kind == SWEEP:
            study = AutomatedViewingStudy(config)
            dataset = study.run_batch(
                cell.n_sessions,
                bandwidth_limit_mbps=cell.bandwidth_limit_mbps,
            )
        elif cell.kind == POPULATION:
            population = PopulationStudy(config, PopulationParameters(
                viewers=cell.viewers, sample_budget=cell.sample_budget,
            )).run()
            dataset = population.sampled
            totals = dict(sorted(population.totals.items()))
        else:
            raise ValueError(f"unknown cell kind {cell.kind!r}")
    return encode_result(CellResult(
        key=key,
        label=cell.label(),
        dataset=dataset,
        totals=totals,
        snapshots=snapshots,
    ))
