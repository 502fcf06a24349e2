"""The declared architecture: which package may import which.

This is the repo's layering manifest — the single place where the
dependency DAG is written down.  The L-rules enforce it mechanically:
a module may only (top-level) import packages of strictly lower rank,
so every allowed edge points downward and the package graph is a DAG by
construction.

Bands, bottom to top (refining DESIGN.md's
``util -> media/protocols -> netsim -> service -> player ->
crawler/core -> experiments/analysis``)::

    util                  pure helpers: units, rng, sampling, tables
    obs                   (special, see below)
    faults                fault plans, impairments, retry policies
    media, energy         codec/content/power models, no I/O
    netsim                event loop, links, topology (pure infrastructure)
    protocols             wire formats; read media frame types and run
                          over netsim streams
    automation, capture   testbed devices and clocks / traffic reconstruction
    service               the simulated Periscope backend
    player                client-side playback
    world                 mesoscale viewer cohorts over the service
    crawler, core         crawls and study orchestration
    campaign              crash-safe memoized sweeps over core studies
    analysis              stats + terminal figures
    experiments, lint     entry points and tooling

``obs`` is the one deliberate exception: it must be importable from
*anywhere* (so any layer can emit telemetry) and may itself import only
``util`` — and not ``util.rng`` even then, so telemetry can never touch
the experiment seed tree.  The O-rules pin that down.

Process-level parallelism is likewise pinned down:
``repro.core.parallel`` — home of the one pool, ``run_tasks``, behind
both study batches and population shards — is the only module that may
import ``multiprocessing``/``concurrent.futures``
(:data:`PROCESS_POOL_MODULES`, rule L304).

A package missing from :data:`RANKS` fails the lint run (L303): adding
a package means deciding where it sits, in this file, in the same PR.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Package -> rank.  An import edge A -> B is legal iff
#: ``RANKS[A] > RANKS[B]`` (or A == B).  Equal ranks may not import each
#: other: packages that must talk get distinct ranks.
RANKS: Dict[str, int] = {
    "util": 0,
    "obs": 5,
    "faults": 8,
    "media": 10,
    "energy": 10,
    "netsim": 12,
    "protocols": 15,
    "automation": 25,
    "capture": 30,
    "service": 40,
    "player": 50,
    "world": 55,
    "crawler": 60,
    "core": 60,
    "campaign": 62,
    "analysis": 65,
    "experiments": 70,
    "lint": 70,
}

#: Importable from every layer (telemetry must reach the lowest ones).
UNIVERSAL_TARGETS = frozenset({"obs"})

#: What ``obs`` itself may import.
OBS_ALLOWED_TARGETS = frozenset({"obs", "util"})

#: Modules ``obs`` may never import, even though their package would be
#: allowed: telemetry must not be able to consume experiment RNG or
#: reorder simulation events.
OBS_FORBIDDEN_MODULES = frozenset({"repro.util.rng", "repro.netsim.events"})

#: Packages whose hot paths must stay hermetic: no environment reads,
#: no filesystem access (D105).  ``campaign`` is deliberately absent:
#: its content-addressed store *is* the sanctioned filesystem surface —
#: checkpoints, journals, and blobs live there so the hermetic layers
#: never have to touch disk themselves.
HERMETIC_PACKAGES = frozenset(
    {"netsim", "service", "player", "media", "faults", "world"}
)

#: Packages allowed to read the wall clock (D101): telemetry measures
#: real elapsed time, and automation models real testbed clocks.
WALL_CLOCK_PACKAGES = frozenset({"obs", "automation"})

#: Simulation packages where float time-comparison discipline (F-rules)
#: applies.
SIM_PACKAGES = frozenset(
    {"netsim", "service", "player", "media", "protocols", "core", "crawler",
     "faults", "world"}
)

#: The only modules allowed to import ``multiprocessing`` /
#: ``concurrent.futures`` (L304).  Process fan-out must stay behind
#: :func:`repro.core.parallel.run_tasks`, which dispatches hermetic
#: tasks to workers that only switch telemetry off, and merges them in
#: index order — ad-hoc pools elsewhere would have none of that and
#: silently break bit-identical replays.
PROCESS_POOL_MODULES = frozenset({"repro.core.parallel"})


def rank_of(package: str) -> Optional[int]:
    """Rank for a package name, or None when undeclared.

    ``""`` (the ``repro`` root package itself) is the public facade and
    may re-export from anywhere, like ``experiments``.
    """
    if package == "":
        return max(RANKS.values()) + 1
    return RANKS.get(package)


def edge_allowed(importer: str, target: str) -> bool:
    """Is a top-level import from package ``importer`` to ``target`` legal?

    Both arguments are package names (first component under ``repro``).
    Unknown packages are *not* decided here — L303 reports them.
    """
    if importer == target:
        return True
    if target in UNIVERSAL_TARGETS:
        return True
    if importer == "obs":
        return target in OBS_ALLOWED_TARGETS
    importer_rank = rank_of(importer)
    target_rank = rank_of(target)
    if importer_rank is None or target_rank is None:
        return True  # undeclared package: L303's problem, not L301's
    return importer_rank > target_rank
