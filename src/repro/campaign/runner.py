"""The campaign runner: plan, skip, execute, checkpoint, resume.

A campaign run is a fixpoint computation over the store:

1. **Plan** the cell grid from the spec (pure; see
   :func:`~repro.campaign.spec.plan_cells`).
2. **Survey** the journal: every planned cell whose journaled blob
   exists *and re-hashes to its address* is memoized; a missing or
   corrupt blob demotes the cell back to pending (and is reported —
   never silently served).
3. **Execute** the pending cells — whole cells go through
   :func:`repro.core.parallel.run_tasks`, which fans them out over
   ``workers`` processes or runs them inline — journaling each completed
   cell (blob first, then the record: the journal may under-promise,
   never over-promise) plus a running checkpoint record.
4. **Finalize**: decode every planned blob in plan order and write the
   merged artifacts — ``dataset.pkl`` (the campaign dataset),
   ``metrics.prom`` / ``metrics.json`` (cell registries folded in plan
   order) and, when the spec has health on, ``health.txt`` (the cells'
   invariant monitors folded the same way).  Because inputs and fold
   order are identical whether a cell was computed now, in a previous
   crashed run, or served from cache, the artifact bytes equal a cold
   serial run's — the property the kill/resume suite enforces.

Progress is surfaced Prometheus-style: ``progress.prom`` in the
campaign directory is atomically rewritten after every completed cell
(a textfile-collector/``watch cat`` friendly dump rendered by the same
exporter as ``--metrics``).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.campaign.cells import (
    BLOB_PICKLE_PROTOCOL,
    CellResult,
    decode_result,
    execute_cell,
)
from repro.campaign.spec import CampaignSpec, CellSpec, cell_key, plan_cells
from repro.campaign.store import (
    RECORD_CELL,
    RECORD_CHECKPOINT,
    RECORD_CORRUPT,
    CampaignStore,
    CorruptBlobError,
    JournalScan,
)
from repro.core.parallel import run_tasks
from repro.obs import HealthMonitor, MetricsRegistry, Telemetry
from repro.obs.export import render_health, render_metrics

SPEC_NAME = "campaign.json"
DATASET_NAME = "dataset.pkl"
METRICS_PROM_NAME = "metrics.prom"
METRICS_JSON_NAME = "metrics.json"
HEALTH_NAME = "health.txt"
PROGRESS_NAME = "progress.prom"

MEMOIZED = "memoized"
PENDING = "pending"
CORRUPT = "corrupt"


@dataclass
class CampaignStatus:
    """A read-only survey of a campaign directory against a spec."""

    planned: int = 0
    memoized: int = 0
    pending: int = 0
    #: Journaled cells not in the current plan (older specs); their
    #: blobs stay live — memoization across spec edits is the point.
    extra_journal: int = 0
    journal_damaged: int = 0
    journal_torn: bool = False
    #: (label, key, state) per planned cell, in plan order.
    cells: List[Tuple[str, str, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.planned > 0 and self.memoized == self.planned


@dataclass
class CampaignSummary:
    """What one :meth:`CampaignRunner.run` call did."""

    planned: int = 0
    memoized: int = 0
    executed: int = 0
    corrupt_recomputed: int = 0
    journal_damaged: int = 0
    journal_torn: bool = False
    artifacts: Dict[str, str] = field(default_factory=dict)
    #: The cells' invariant monitors folded in plan order (health on only).
    health: Optional[HealthMonitor] = None


class CampaignRunner:
    """Drives one campaign directory to completion (resumably)."""

    def __init__(
        self,
        store: CampaignStore,
        spec: CampaignSpec,
        workers: int = 1,
    ) -> None:
        self.store = store
        self.spec = spec
        self.workers = workers
        self._planned: List[Tuple[str, CellSpec]] = []
        self._completed_keys: List[str] = []

    # ------------------------------------------------------------------ plan

    def plan(self) -> List[Tuple[str, CellSpec]]:
        """The ordered (key, cell) grid; cached per runner."""
        if not self._planned:
            cells = plan_cells(self.spec)
            self._planned = [(cell_key(cell), cell) for cell in cells]
            if len({key for key, _ in self._planned}) != len(self._planned):
                raise ValueError("campaign plan contains duplicate cells")
        return self._planned

    def _survey(
        self, scan: JournalScan, verify_blobs: bool
    ) -> Tuple[Dict[str, str], List[str]]:
        """(valid completed key -> blob, corrupt keys) for planned cells."""
        journaled = self.store.completed_cells(scan)
        valid: Dict[str, str] = {}
        corrupt: List[str] = []
        for key, _cell in self.plan():
            address = journaled.get(key)
            if address is None:
                continue
            if verify_blobs:
                try:
                    self.store.read_blob(address)
                except (CorruptBlobError, FileNotFoundError):
                    corrupt.append(key)
                    continue
            elif not self.store.has_blob(address):
                corrupt.append(key)
                continue
            valid[key] = address
        return valid, corrupt

    def status(self) -> CampaignStatus:
        """Survey without locking (safe beside a live runner: reads only)."""
        scan = self.store.scan_journal()
        valid, corrupt = self._survey(scan, verify_blobs=False)
        journaled = self.store.completed_cells(scan)
        planned_keys = {key for key, _ in self.plan()}
        status = CampaignStatus(
            planned=len(self.plan()),
            memoized=len(valid),
            pending=len(self.plan()) - len(valid),
            extra_journal=len(set(journaled) - planned_keys),
            journal_damaged=scan.damaged,
            journal_torn=scan.torn_tail,
        )
        for key, cell in self.plan():
            if key in valid:
                state = MEMOIZED
            elif key in corrupt:
                state = CORRUPT
            else:
                state = PENDING
            status.cells.append((cell.label(), key, state))
        return status

    # ------------------------------------------------------------------- run

    def run(self) -> CampaignSummary:
        """Execute the campaign to completion (or resume it there)."""
        summary = CampaignSummary(planned=len(self.plan()))
        self.store.acquire_lock()
        try:
            self.store.write_artifact(SPEC_NAME, self.spec.to_json().encode("utf-8"))
            scan = self.store.open_journal()
            summary.journal_damaged = scan.damaged
            summary.journal_torn = scan.torn_tail
            valid, corrupt = self._survey(scan, verify_blobs=True)
            for key in corrupt:
                self.store.append_record({
                    "kind": RECORD_CORRUPT,
                    "key": key,
                })
            summary.memoized = len(valid)
            summary.corrupt_recomputed = len(corrupt)
            self._completed_keys = [
                key for key, _ in self.plan() if key in valid
            ]
            pending = [
                (key, cell) for key, cell in self.plan() if key not in valid
            ]
            self._write_progress(summary)

            run_tasks(
                execute_cell,
                pending,
                workers=self.workers,
                on_result=lambda index, blob: self._commit_cell(
                    pending[index][0], pending[index][1], blob, summary
                ),
            )
            self._finalize(summary)
            self.store.append_record({
                "kind": RECORD_CHECKPOINT,
                "completed": len(self._completed_keys),
                "planned": summary.planned,
                "final": True,
            })
            self._write_progress(summary, complete=True)
        finally:
            self.store.close()
        return summary

    def _commit_cell(
        self,
        key: str,
        cell: CellSpec,
        blob: bytes,
        summary: CampaignSummary,
    ) -> None:
        """Blob first, then the journal record, then the checkpoint —
        a crash between any two steps loses at most recomputable work."""
        address = self.store.put_blob(blob)
        self.store.append_record({
            "kind": RECORD_CELL,
            "key": key,
            "blob": address,
            "label": cell.label(),
        })
        self._completed_keys.append(key)
        summary.executed += 1
        self.store.append_record({
            "kind": RECORD_CHECKPOINT,
            "completed": len(self._completed_keys),
            "planned": summary.planned,
        })
        self._write_progress(summary)

    # -------------------------------------------------------------- finalize

    def _finalize(self, summary: CampaignSummary) -> None:
        """Decode every planned blob in plan order; write merged artifacts."""
        completed = self.store.completed_cells()
        merged = Telemetry(metrics=False, tracing=False, profiling=False)
        cells_out: List[dict] = []
        for key, cell in self.plan():
            result: CellResult = decode_result(
                self.store.read_blob(completed[key])
            )
            cells_out.append({
                "key": key,
                "label": cell.label(),
                "seed": cell.seed,
                "kind": cell.kind,
                "bandwidth_limit_mbps": cell.bandwidth_limit_mbps,
                "viewers": cell.viewers,
                "dataset": result.dataset,
                "totals": result.totals,
            })
            merged.merge(result.snapshots)
        dataset_payload = {
            "schema_version": 1,
            "kind": self.spec.kind,
            "cells": cells_out,
        }
        artifacts = {
            "dataset": self.store.write_artifact(
                DATASET_NAME,
                pickle.dumps(dataset_payload, protocol=BLOB_PICKLE_PROTOCOL),
            ),
            "metrics_prom": self.store.write_artifact(
                METRICS_PROM_NAME,
                render_metrics(merged.metrics).encode("utf-8"),
            ),
            "metrics_json": self.store.write_artifact(
                METRICS_JSON_NAME, _snapshot_json(merged.metrics)
            ),
        }
        if self.spec.health_enabled:
            artifacts["health"] = self.store.write_artifact(
                HEALTH_NAME, (render_health(merged) + "\n").encode("utf-8")
            )
            summary.health = merged.health
        summary.artifacts = artifacts

    # -------------------------------------------------------------- progress

    def _write_progress(
        self, summary: CampaignSummary, complete: bool = False
    ) -> None:
        """Atomically rewrite ``progress.prom`` (the --serve-style dump)."""
        registry = MetricsRegistry()
        registry.gauge(
            "campaign_cells_planned", "Cells in the current plan"
        ).set(float(summary.planned))
        registry.gauge(
            "campaign_cells_completed",
            "Planned cells with a valid journaled blob",
        ).set(float(len(self._completed_keys)))
        registry.gauge(
            "campaign_cells_memoized",
            "Planned cells served from the store this run",
        ).set(float(summary.memoized))
        registry.counter(
            "campaign_cells_executed_total", "Cells computed this run"
        ).inc(summary.executed)
        registry.counter(
            "campaign_corrupt_blobs_total",
            "Journaled blobs that failed verification and were recomputed",
        ).inc(summary.corrupt_recomputed)
        registry.counter(
            "campaign_journal_damaged_records_total",
            "Journal records dropped at reopen (bad frame mid-file)",
        ).inc(summary.journal_damaged)
        registry.gauge(
            "campaign_journal_torn_tail",
            "1 when reopening found (and truncated) a torn final record",
        ).set(1.0 if summary.journal_torn else 0.0)
        registry.gauge(
            "campaign_complete", "1 once every planned cell is journaled"
        ).set(1.0 if complete else 0.0)
        self.store.write_artifact(
            PROGRESS_NAME, render_metrics(registry).encode("utf-8")
        )


def _snapshot_json(registry: MetricsRegistry) -> bytes:
    import json

    return (json.dumps(registry.snapshot(), sort_keys=True) + "\n").encode("utf-8")
