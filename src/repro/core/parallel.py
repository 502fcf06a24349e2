"""The process pool and the session executor.

Every process fan-out in the repo goes through :func:`run_tasks`: an
index-ordered map of a module-level callable over picklable, hermetic
items, run inline when there is nothing to fan out.  Every study
session, at every worker count, goes through :func:`run_setups`, which
needs nothing from the worker process but its arguments — a worker
only switches telemetry off when it starts.

The automated-viewing study runs in two phases (see
:meth:`~repro.core.study.AutomatedViewingStudy.run_batch`): phase one
samples every :class:`~repro.core.session.SessionSetup` serially — world
evolution and the teleport RNG stay on one thread, so the sampled
population is byte-for-byte the same regardless of worker count — and
phase two executes the expensive :meth:`ViewingSession.run` calls
through :func:`run_sessions`, inline or fanned out in contiguous chunks.

Why results are bit-identical at every worker count:

* each session owns a private :class:`~repro.netsim.events.EventLoop`
  and derives every RNG stream from its own ``setup.seed``;
* the only shared state a session reads is the
  :class:`~repro.service.ingest.IngestPool`, which is immutable after
  construction and fully determined by the study seed —
  :func:`run_setups` rebuilds it from ``config.seed``;
* telemetry never feeds back into simulation state, and each session
  records into private instruments whose snapshot the parent folds in
  session order with :meth:`~repro.obs.Telemetry.merge` — so the merged
  telemetry is the same bytes for every worker count.

A task that raises propagates the exception to the parent through
``Future.result()`` — a poisoned setup fails the batch loudly instead of
hanging or silently dropping sessions.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import obs
from repro.core.config import StudyConfig
from repro.core.qoe import SessionQoE
from repro.core.session import SessionSetup, ViewingSession
from repro.service.ingest import IngestPool
from repro.util.rng import child_rng

#: Chunks dispatched per worker: small enough to balance skewed session
#: costs (a 0.5 Mbps session simulates far more packet events than an
#: unshaped one), large enough to amortize pickling.
CHUNKS_PER_WORKER = 4


@dataclass
class SessionResult:
    """The slim, picklable per-session outcome of :func:`run_setups`.

    Exactly what :class:`~repro.core.study.StudyDataset` keeps — the
    rest of :class:`SessionArtifacts` (raw playbackMeta, chat counters)
    never leaves the executor, inline or across the process boundary.
    """

    qoe: SessionQoE
    avatar_bytes: int
    down_bytes: int


def run_setups(
    config: StudyConfig,
    spec: obs.TelemetrySpec,
    setups: Sequence[SessionSetup],
    start: int = 0,
) -> Tuple[List[SessionResult], List[dict]]:
    """Run prepared setups in order: the one session executor.

    Rebuilds the study's ingest pool from ``config.seed`` and records
    each session in its own :func:`obs.capture` scope.  Returns the
    results and one telemetry snapshot per session, both in input order.
    Sessions take this process's network path: the fast path, unless
    the call runs inline inside :func:`repro.netsim.fastpath.exact_network`
    (the identity tests' oracle switch; nothing passes it to workers).

    ``start`` is the offset of ``setups`` in the caller's full sequence:
    a session that raises gets the *global* index of the failing cell
    attached as ``cell_index`` (an instance attribute, so it survives
    the pickle trip back to the parent alongside the remote traceback).
    """
    ingest = IngestPool(child_rng(config.seed, "ingest-pool"))
    results: List[SessionResult] = []
    snapshots: List[dict] = []
    for offset, setup in enumerate(setups):
        with obs.capture(spec) as snapshot:
            try:
                artifacts = ViewingSession(setup, ingest=ingest).run()
            except Exception as error:
                error.cell_index = start + offset  # type: ignore[attr-defined]
                raise
        results.append(SessionResult(
            qoe=artifacts.qoe,
            avatar_bytes=artifacts.avatar_bytes,
            down_bytes=artifacts.total_down_bytes,
        ))
        snapshots.append(snapshot)
    return results, snapshots


def _run_chunk(item) -> Tuple[List[SessionResult], List[dict]]:
    """Pool task of :func:`run_sessions`: one contiguous chunk."""
    config, spec, setups, start = item
    return run_setups(config, spec, setups, start)


def chunk_bounds(n_items: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunk bounds for ``n_items`` setups.

    Deterministic in (n_items, workers): the dispatch plan — and with it
    the parent's merge order — never depends on scheduling.
    """
    if n_items <= 0:
        return []
    workers = max(1, workers)
    chunk_size = max(1, math.ceil(n_items / (workers * CHUNKS_PER_WORKER)))
    return [
        (start, min(start + chunk_size, n_items))
        for start in range(0, n_items, chunk_size)
    ]


def run_sessions(
    config: StudyConfig,
    spec: obs.TelemetrySpec,
    setups: Sequence[SessionSetup],
    *,
    workers: int,
) -> Tuple[List[SessionResult], List[dict]]:
    """:func:`run_setups` over contiguous chunks, fanned out over
    ``workers`` processes or run inline below two (see
    :func:`run_tasks`).  Results and per-session snapshots come back in
    input order, exactly as one :func:`run_setups` call would return
    them; worker exceptions re-raise here, in the parent."""
    chunks = [
        (config, spec, setups[start:stop], start)
        for start, stop in chunk_bounds(len(setups), workers)
    ]
    results: List[SessionResult] = []
    snapshots: List[dict] = []
    for chunk_results, chunk_snapshots in run_tasks(
        _run_chunk, chunks, workers=workers
    ):
        results.extend(chunk_results)
        snapshots.extend(chunk_snapshots)
    return results, snapshots


def _run_task(func, index: int, item):
    """Task shim for :func:`run_tasks`: tag failures with the task index
    (an instance attribute, so it survives the pickle trip)."""
    try:
        return func(item)
    except Exception as error:
        error.task_index = index  # type: ignore[attr-defined]
        raise


def run_tasks(
    func,
    items: Sequence,
    *,
    workers: int,
    on_result=None,
) -> List:
    """Index-ordered process fan-out for hermetic task units.

    ``func`` must be a module-level callable (pickled by reference) and
    each item must be picklable and hermetic — the result may depend
    only on the item.  Results come back in input order;
    ``on_result(index, result)`` fires in the parent, also in input
    order, as each prefix of the submission completes — which is what
    lets a caller checkpoint finished work incrementally without ever
    observing completion order.  A task that raises re-raises here with
    ``task_index`` attached.

    With ``workers < 2`` or fewer than two items there is nothing to fan
    out: the items run inline, one after the other, through the same
    shim — same results, same ``on_result`` order, same ``task_index``.
    A pool worker starts with telemetry off, so a task never records
    into the copy of the parent's telemetry that ``fork`` gave it.
    """
    if workers < 2 or len(items) < 2:
        return _collect(
            (_run_task(func, index, item) for index, item in enumerate(items)),
            on_result,
        )
    with ProcessPoolExecutor(max_workers=workers,
                             initializer=obs.deactivate) as pool:
        futures = [
            pool.submit(_run_task, func, index, item)
            for index, item in enumerate(items)
        ]
        return _collect((future.result() for future in futures), on_result)


def _collect(outcomes, on_result) -> List:
    """Drain ``outcomes`` in order, firing ``on_result`` per result."""
    results: List = []
    for index, result in enumerate(outcomes):
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results
