"""Shared experiment infrastructure: dataset caching at a chosen scale."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.config import StudyConfig
from repro.faults.plan import FaultPlan
from repro.core.study import AutomatedViewingStudy, StudyDataset
from repro.crawler.client import CrawlHarness
from repro.crawler.deep import DeepCrawler, DeepCrawlResult
from repro.crawler.targeted import TargetedCrawl


class Workbench:
    """Runs and caches the datasets the figure drivers consume.

    One workbench = one seed + one scale.  The default sizes keep the
    full benchmark suite in the minutes range; raise ``unlimited_sessions``
    / ``sweep_sessions_per_limit`` / crawl durations toward the paper's
    numbers for a full-scale reproduction run — and pass ``workers`` to
    fan session execution out over a process pool (datasets stay
    bit-identical to a serial run; see :mod:`repro.core.parallel`).
    """

    def __init__(
        self,
        seed: int = 2016,
        unlimited_sessions: int = 120,
        sweep_sessions_per_limit: int = 8,
        sweep_limits_mbps: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 100.0),
        crawl_world_concurrent: int = 900,
        deep_crawls: int = 4,
        targeted_duration_s: float = 2400.0,
        metrics: bool = False,
        tracing: bool = False,
        causes: bool = False,
        health: bool = False,
        workers: int = 1,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.config = StudyConfig(seed=seed, metrics_enabled=metrics,
                                  tracing_enabled=tracing,
                                  causes_enabled=causes,
                                  health_enabled=health,
                                  workers=workers, faults=faults)
        #: Activate telemetry up front so loops built by crawls (which do
        #: not go through AutomatedViewingStudy) are profiled too.
        self.telemetry = obs.ensure_active(metrics=metrics, tracing=tracing,
                                           causes=causes, health=health)
        self.seed = seed
        self.unlimited_sessions = unlimited_sessions
        self.sweep_sessions_per_limit = sweep_sessions_per_limit
        self.sweep_limits_mbps = list(sweep_limits_mbps)
        self.crawl_world_concurrent = crawl_world_concurrent
        self.deep_crawls = deep_crawls
        self.targeted_duration_s = targeted_duration_s

        self._study: Optional[AutomatedViewingStudy] = None
        self._unlimited: Optional[StudyDataset] = None
        self._sweep: Optional[Dict[float, StudyDataset]] = None
        self._deep_results: Optional[List[DeepCrawlResult]] = None
        self._targeted: Optional[Tuple[CrawlHarness, TargetedCrawl]] = None

    # ---------------------------------------------------------------- study

    @property
    def study(self) -> AutomatedViewingStudy:
        if self._study is None:
            self._study = AutomatedViewingStudy(self.config)
        return self._study

    def unlimited(self) -> StudyDataset:
        """The unshaped viewing dataset (Figs. 3a, 5, 6, t-tests)."""
        if self._unlimited is None:
            self._unlimited = self.study.run_batch(self.unlimited_sessions)
        return self._unlimited

    def sweep(self) -> Dict[float, StudyDataset]:
        """The tc bandwidth sweep (Figs. 3b, 4)."""
        if self._sweep is None:
            self._sweep = self.study.run_bandwidth_sweep(
                sessions_per_limit=self.sweep_sessions_per_limit,
                limits_mbps=self.sweep_limits_mbps,
            )
        return self._sweep

    # --------------------------------------------------------------- crawls

    def deep_crawl_results(self) -> List[DeepCrawlResult]:
        """Deep crawls started at different times of day (Fig. 1)."""
        if self._deep_results is None:
            results = []
            for index in range(self.deep_crawls):
                harness = CrawlHarness(
                    seed=self.seed + 1000 + index,
                    mean_concurrent=self.crawl_world_concurrent,
                )
                # Different local times of day: offset each world's clock
                # by advancing before the crawl starts.
                start_at = index * 6.0 * 3600.0
                if start_at > 0:
                    harness.world.advance_to(start_at)
                    harness.loop.run_until(start_at)
                crawler = DeepCrawler(harness.clients[0])
                crawler.start()
                harness.run_until(start_at + 3600.0)
                results.append(crawler.result)
            self._deep_results = results
        return self._deep_results

    def targeted_crawl(self) -> Tuple[CrawlHarness, TargetedCrawl]:
        """A four-identity targeted crawl over the top deep-crawl areas
        (Fig. 2)."""
        if self._targeted is None:
            harness = CrawlHarness(
                seed=self.seed + 2000,
                mean_concurrent=self.crawl_world_concurrent,
                identities=4,
            )
            deep = DeepCrawler(harness.clients[0])
            deep.start()
            harness.run_until(1200.0)
            areas = deep.result.top_areas(64)
            targeted = TargetedCrawl(harness.clients, areas,
                                     duration_s=self.targeted_duration_s)
            targeted.start()
            harness.run_until(1200.0 + self.targeted_duration_s + 10.0)
            self._targeted = (harness, targeted)
        return self._targeted

    def broadcast_utc_offsets(self) -> Dict[str, int]:
        """Resolve tracked broadcast ids to broadcaster UTC offsets, the
        way the paper derives local time from the description's zone."""
        harness, targeted = self.targeted_crawl()
        registry = harness.world.utc_offset_by_id
        return {
            broadcast_id: registry[broadcast_id]
            for broadcast_id in targeted.tracked
            if broadcast_id in registry
        }
