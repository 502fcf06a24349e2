"""The four benchmark workloads.

Each workload is a closed loop: the benchmark starts unit ``i + 1`` only
after unit ``i`` has returned, one client, no open-loop rate.  A unit is
deterministic in ``(seed, index)`` given the units before it, so a
fresh instance replaying units ``0..k`` reproduces their outputs byte
for byte.  The output check relies on that.

Every workload splits a unit into two calls:

* :meth:`run_unit` is the timed part: it only drives the program;
* :meth:`inspect` is untimed: it digests the outputs and checks the
  invariants that hold for any seed.

Constructing a workload is its set-up: the imports of the program and
the construction of the objects the first unit starts from.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

#: Pinned so digests do not depend on the interpreter's default protocol.
PICKLE_PROTOCOL = 4

#: Bandwidth limits (Mbps) of a sweep round: throttled and queueing at
#: 0.5, near the stream bitrates at 2, unshaped bulk transfer at 100.
SWEEP_LIMITS_MBPS = (0.5, 2.0, 100.0)

#: Faults of the forensics campaign: bursty Gilbert-Elliott loss, jitter,
#: ingest outages and API 5xx errors, all recovered from by the clients.
CAMPAIGN_FAULTS = "loss=ge:0.02:0.3:0.5,jitter=0.005,ingest=0.03:1:2,api5xx=0.1"


def digest(value: object) -> str:
    """SHA-256 of a protocol-4 pickle."""
    return hashlib.sha256(pickle.dumps(value, protocol=PICKLE_PROTOCOL)).hexdigest()


def unit_seed(seed: int, index: int) -> int:
    """The study seed of unit ``index`` for workloads whose units are
    independent worlds."""
    return seed * 10_000 + index


@dataclass
class UnitResult:
    """What :meth:`inspect` learned about one unit."""

    #: Work items the unit completed (sessions, viewers or API requests).
    items: int
    digest: str
    #: Invariant violations; empty when the unit is correct.
    problems: List[str] = field(default_factory=list)
    #: Per-layer counts read from the outputs (name -> value).
    counts: Dict[str, float] = field(default_factory=dict)


def _session_problems(dataset) -> List[str]:
    problems = []
    if dataset.shortfall:
        problems.append(f"study shortfall of {dataset.shortfall} sessions")
    for qoe in dataset.sessions:
        if not qoe.consistent():
            problems.append(
                f"session {qoe.broadcast_id}: join + playback + stalls "
                f"!= watch time")
    return problems


class TeleportSweep:
    """Teleport viewing sessions of one study, serial, telemetry off.
    One unit is one sweep round: a session at each bandwidth limit, so
    every unit carries the same mix of throttled and bulk transfers."""

    name = "teleport_sweep"
    item = "session"
    check_units = 1

    def __init__(self, seed: int, workers: int = 1) -> None:
        from repro.core.config import StudyConfig
        from repro.core.study import AutomatedViewingStudy

        self.workers = workers
        self.study = AutomatedViewingStudy(StudyConfig(seed=seed))

    def sizes(self) -> dict:
        return {"limits_mbps": list(SWEEP_LIMITS_MBPS),
                "sessions_per_unit": len(SWEEP_LIMITS_MBPS),
                "scale": self.study.config.scale}

    def run_unit(self, index: int):
        return [self.study.run_batch(1, bandwidth_limit_mbps=limit)
                for limit in SWEEP_LIMITS_MBPS]

    def inspect(self, datasets) -> UnitResult:
        problems = []
        for dataset in datasets:
            problems.extend(_session_problems(dataset))
        return UnitResult(
            items=sum(len(d.sessions) for d in datasets),
            digest=digest([(d.sessions, d.avatar_bytes, d.down_bytes)
                           for d in datasets]),
            problems=problems,
        )


class PopulationWorld:
    """Population-scale worlds: viewer cohorts advanced in closed form,
    sharded over the ``world.shards`` pool.  One unit is one world with
    its own seed.

    No cohort member is promoted to an exact session
    (``sample_budget=0``): the number of promoted anchors is random per
    world, and a handful of exact sessions would swing the unit time by
    a quarter.  The workload is therefore the path that bypasses netsim,
    media, protocols and player entirely."""

    name = "population_world"
    item = "viewer"
    check_units = 1
    viewers = 100_000
    sample_budget = 0

    def __init__(self, seed: int, workers: int = 2) -> None:
        from repro.core.config import StudyConfig
        from repro.core.popstudy import PopulationStudy
        from repro.world.popularity import PopulationParameters

        self.seed = seed
        self.workers = workers
        self._config = StudyConfig
        self._study = PopulationStudy
        self.params = PopulationParameters(viewers=self.viewers,
                                           sample_budget=self.sample_budget)

    def sizes(self) -> dict:
        return {"viewers_per_unit": self.viewers,
                "sample_budget": self.sample_budget, "workers": self.workers}

    def run_unit(self, index: int):
        config = self._config(seed=unit_seed(self.seed, index),
                              workers=self.workers)
        return self._study(config, self.params).run()

    def inspect(self, result) -> UnitResult:
        sampled = result.sampled
        problems = _session_problems(sampled)
        if len(sampled.sessions) != len(result.world.requests):
            problems.append(
                f"{len(result.world.requests)} anchors planned, "
                f"{len(sampled.sessions)} ran")
        # Sessions pickle one by one: a whole-list pickle differs between
        # in-process and pooled results through memoized shared references.
        parts = [pickle.dumps(s, protocol=PICKLE_PROTOCOL) for s in sampled.sessions]
        return UnitResult(
            items=result.population.total_viewers,
            digest=digest((parts, sampled.avatar_bytes, sampled.down_bytes,
                           sorted(result.world.totals.items()))),
            problems=problems,
        )


class CrawlApi:
    """API crawls against an evolving world: set-up builds the world and
    runs a deep quadtree crawl; a four-identity targeted crawl over its
    busiest areas then polls on, and one unit is the next
    ``unit_s`` simulated seconds of it.  HTTP runs over netsim; no media."""

    name = "crawl_api"
    item = "API request"
    check_units = 1
    concurrent = 1500
    identities = 4
    deep_s = 1200.0
    unit_s = 300.0

    def __init__(self, seed: int, workers: int = 1) -> None:
        from repro.crawler.client import CrawlHarness
        from repro.crawler.deep import DeepCrawler
        from repro.crawler.targeted import TargetedCrawl

        self.workers = workers
        self.harness = CrawlHarness(seed=seed, mean_concurrent=self.concurrent,
                                    identities=self.identities)
        deep = DeepCrawler(self.harness.clients[0])
        deep.start()
        self.harness.run_until(self.deep_s)
        self.discovered = sorted(deep.result.discovered)
        #: Polls until the run stops; units only advance the clock.
        self.targeted = TargetedCrawl(self.harness.clients,
                                      deep.result.top_areas(64),
                                      duration_s=float("inf"))
        self.targeted.start()
        self._handled = self.harness.api.requests_handled

    def sizes(self) -> dict:
        return {"mean_concurrent": self.concurrent,
                "identities": self.identities, "deep_s": self.deep_s,
                "unit_s": self.unit_s}

    def run_unit(self, index: int):
        self.harness.run_until(self.deep_s + (index + 1) * self.unit_s)
        return index

    def inspect(self, index) -> UnitResult:
        handled = self.harness.api.requests_handled
        items, self._handled = handled - self._handled, handled
        clients = [(c.requests_sent, c.throttled, c.retries, c.gave_up)
                   for c in self.harness.clients]
        problems = []
        gave_up = sum(c.gave_up for c in self.harness.clients)
        if gave_up:
            problems.append(f"{gave_up} API calls gave up")
        if not items:
            problems.append("no API request in the unit")
        tracked = self.targeted.tracked
        return UnitResult(
            items=items,
            digest=digest((self.discovered if index == 0 else None, handled,
                           clients, self.targeted.rounds_completed,
                           sorted(tracked.items()))),
            problems=problems,
        )


class ForensicsCampaign:
    """A crash-safe campaign with faults, cause attribution and health
    monitors on, cells fanned out over the ``run_tasks`` pool, then a
    memoized rerun of the same grid.  One unit is one campaign into a
    fresh directory: one cell per worker, all at one bandwidth limit so
    the workers finish together, the limit rotating per unit."""

    name = "forensics_campaign"
    item = "session"
    check_units = 1
    seeds_per_unit = 2
    sessions_per_cell = 1

    def __init__(self, seed: int, workers: int = 2, workdir: str = "") -> None:
        from repro.campaign.runner import DATASET_NAME, METRICS_JSON_NAME, CampaignRunner
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import CampaignStore

        self.seed = seed
        self.workers = workers
        self.workdir = workdir or tempfile.gettempdir()
        self._runner = CampaignRunner
        self._store = CampaignStore
        self._spec = CampaignSpec
        self._artifacts = (DATASET_NAME, METRICS_JSON_NAME)

    def sizes(self) -> dict:
        return {"seeds_per_unit": self.seeds_per_unit,
                "limits_mbps": list(SWEEP_LIMITS_MBPS),
                "sessions_per_cell": self.sessions_per_cell,
                "faults": CAMPAIGN_FAULTS, "workers": self.workers}

    def spec(self, index: int):
        first = unit_seed(self.seed, index * self.seeds_per_unit)
        return self._spec(
            seeds=tuple(range(first, first + self.seeds_per_unit)),
            limits_mbps=(SWEEP_LIMITS_MBPS[index % len(SWEEP_LIMITS_MBPS)],),
            sessions_per_cell=self.sessions_per_cell,
            faults=CAMPAIGN_FAULTS,
            causes_enabled=True,
            health_enabled=True,
        )

    def run_unit(self, index: int):
        spec = self.spec(index)
        directory = tempfile.mkdtemp(prefix="campaign-", dir=self.workdir)
        try:
            summary = self._runner(self._store(directory), spec,
                                   workers=self.workers).run()
        except BaseException:
            shutil.rmtree(directory, ignore_errors=True)
            raise
        return spec, directory, summary

    def _read(self, directory: str) -> List[bytes]:
        out = []
        for name in self._artifacts:
            with open(os.path.join(directory, name), "rb") as handle:
                out.append(handle.read())
        return out

    def inspect(self, outputs) -> UnitResult:
        spec, directory, summary = outputs
        try:
            artifacts = self._read(directory)
            store_bytes = sum(
                os.path.getsize(os.path.join(root, name))
                for root, _dirs, names in os.walk(directory) for name in names)
            started = time.perf_counter()
            rerun = self._runner(self._store(directory), spec,
                                 workers=self.workers).run()
            rerun_s = time.perf_counter() - started
            rerun_artifacts = self._read(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        problems = []
        if summary.executed != summary.planned:
            problems.append(f"cold run executed {summary.executed} of "
                            f"{summary.planned} cells")
        if rerun.executed != 0 or rerun.memoized != summary.planned:
            problems.append(f"memoized rerun executed {rerun.executed} cells")
        if rerun_artifacts != artifacts:
            problems.append("memoized rerun changed the artifacts")
        dataset = pickle.loads(artifacts[0])
        sessions = 0
        for cell in dataset["cells"]:
            sessions += len(cell["dataset"].sessions)
            problems.extend(_session_problems(cell["dataset"]))
        expected = summary.planned * spec.sessions_per_cell
        if sessions != expected:
            problems.append(f"{sessions} sessions in the dataset, expected {expected}")
        return UnitResult(
            items=sessions,
            digest=digest([hashlib.sha256(a).hexdigest() for a in artifacts]),
            problems=problems,
            counts={"campaign.store_bytes": store_bytes,
                    "campaign.memo_rerun_s": rerun_s},
        )


WORKLOADS = {w.name: w for w in (TeleportSweep, PopulationWorld, CrawlApi,
                                 ForensicsCampaign)}
