"""``repro.obs`` — simulation-wide telemetry.

One :class:`Telemetry` object bundles the instruments:

* :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters,
  gauges, and streaming histograms;
* :class:`~repro.obs.tracing.Tracer` — nested sim-time spans with
  wall-clock cost, exported as JSONL;
* :class:`~repro.obs.profiler.EventLoopProfiler` — per-callback-site
  event counts and wall-time attribution across every event loop;
* :class:`~repro.obs.causes.CauseCollector` — causal attribution of
  QoE-affecting delay (stall forensics);
* :class:`~repro.obs.health.HealthMonitor` — online invariant checks
  counted into ``health_violations_total``.

Instrumented code asks for the *active* telemetry and bails out on one
attribute check when it is disabled::

    from repro import obs
    telemetry = obs.active()
    if telemetry.enabled:
        telemetry.metrics.counter("player_stalls_total").inc()

Telemetry is **off by default**: :func:`active` returns a permanently
disabled singleton until :func:`activate` (or the :func:`session`
context manager, or a :class:`~repro.core.config.StudyConfig` with its
telemetry flags set) installs a live one.  None of the instruments
consume RNG or schedule events, so enabling them cannot change
simulation results — the determinism regression test holds the repo to
that.

Every study session records through :func:`capture`, inline or in a
pool worker: each unit gets private instruments named by a picklable
:class:`TelemetrySpec`, and the parent folds the returned snapshot in
with :meth:`Telemetry.merge`.  An inline unit also traces and profiles
into the caller's tracer and profiler; a pool worker starts with
telemetry off, so its units do neither.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs.causes import AttributionRecord, CAUSES, CauseCollector
from repro.obs.health import HealthMonitor
from repro.obs.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiler import EventLoopProfiler, callback_site
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "EventLoopProfiler", "callback_site", "Span", "Tracer",
    "AttributionRecord", "CAUSES", "CauseCollector", "HealthMonitor",
    "Telemetry", "TelemetrySpec", "active", "activate", "capture",
    "deactivate", "ensure_active", "session",
]


class Telemetry:
    """A live telemetry bundle.  ``enabled`` gates every instrument."""

    def __init__(
        self,
        metrics: bool = True,
        tracing: bool = True,
        profiling: bool = True,
        causes: bool = False,
        health: bool = False,
    ) -> None:
        self.enabled = True
        self.metrics_on = metrics
        self.tracing_on = tracing
        self.profiling_on = profiling
        self.causes_on = causes
        self.health_on = health
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.profiler = EventLoopProfiler()
        self.causes = CauseCollector()
        self.health = HealthMonitor()
        if metrics:
            self._declare_core_series()

    def _declare_core_series(self) -> None:
        """Pre-register the headline series so every Prometheus dump
        names them (HELP/TYPE) even when a run never throttles, stalls,
        or crawls — absence of events should read as zero, not as a
        missing metric."""
        declare = self.metrics.declare
        declare("http_429_total", "counter", "Rate-limited responses")
        declare("api_throttled_total", "counter",
                "apiRequest commands answered 429")
        declare("netsim_link_queue_delay_seconds", "histogram",
                "Time spent queued behind earlier transmissions")
        declare("netsim_link_throttle_seconds_total", "counter",
                "Token-bucket shaping delay")
        declare("player_stalls_total", "counter",
                "Playback underruns (stall begins)")
        declare("player_stall_seconds", "histogram",
                "Stall durations")
        declare("crawl_areas_queried_total", "counter",
                "Map areas queried by crawlers")
        declare("crawl_broadcasts_discovered_total", "counter",
                "Distinct broadcasts discovered by crawlers")

    def loop_profiler(self) -> Optional[EventLoopProfiler]:
        """The shared profiler for a newly built event loop (or None)."""
        if self.enabled and self.profiling_on:
            return self.profiler
        return None

    def merge(self, snapshot: dict) -> None:
        """Fold a :func:`capture` snapshot into these instruments."""
        if "metrics" in snapshot:
            self.metrics.merge_from(snapshot["metrics"])
        if "causes" in snapshot:
            self.causes.merge_from(snapshot["causes"])
        if "health" in snapshot:
            self.health.merge_from(snapshot["health"])


@dataclass(frozen=True)
class TelemetrySpec:
    """The instruments a unit of pooled work records: the picklable part
    of a :class:`Telemetry` that crosses the process boundary.  Tracing
    and profiling never do — their spans and wall times would depend on
    how the work was split."""

    metrics: bool = False
    causes: bool = False
    health: bool = False

    @classmethod
    def of(cls, telemetry: Telemetry) -> "TelemetrySpec":
        """The spec that mirrors ``telemetry``'s enabled instruments."""
        if not telemetry.enabled:
            return cls()
        return cls(telemetry.metrics_on, telemetry.causes_on,
                   telemetry.health_on)


class _DisabledTelemetry(Telemetry):
    """The default: every gate closed, instruments inert placeholders."""

    def __init__(self) -> None:
        super().__init__(metrics=False, tracing=False, profiling=False)
        self.enabled = False


_DISABLED = _DisabledTelemetry()
_active: Telemetry = _DISABLED


def active() -> Telemetry:
    """The currently active telemetry (a disabled singleton by default)."""
    return _active


def activate(telemetry: Optional[Telemetry] = None) -> Telemetry:
    """Install ``telemetry`` (or a fresh fully-enabled one) as active."""
    global _active
    _active = telemetry if telemetry is not None else Telemetry()
    return _active


def deactivate() -> None:
    """Restore the disabled default."""
    global _active
    _active = _DISABLED


def ensure_active(
    metrics: bool = False,
    tracing: bool = False,
    causes: bool = False,
    health: bool = False,
) -> Telemetry:
    """Activate telemetry if any flag asks for it and none is active yet.

    This is how :class:`~repro.core.config.StudyConfig` opt-in flags take
    effect without every constructor threading a telemetry handle.  It
    never installs the wall-clock event-loop profiler: that is switched
    on only by activating a :class:`Telemetry` with ``profiling=True``
    (the experiments CLI does so under ``--metrics``).
    """
    if not (metrics or tracing or causes or health):
        return _active
    if not _active.enabled:
        activate(Telemetry(metrics=metrics, tracing=tracing, profiling=False,
                           causes=causes, health=health))
    return _active


@contextlib.contextmanager
def session(
    metrics: bool = True,
    tracing: bool = True,
    profiling: bool = True,
    causes: bool = False,
    health: bool = False,
) -> Iterator[Telemetry]:
    """Scoped activation: install a fresh telemetry, restore on exit."""
    previous = _active
    telemetry = Telemetry(metrics=metrics, tracing=tracing,
                          profiling=profiling, causes=causes, health=health)
    activate(telemetry)
    try:
        yield telemetry
    finally:
        activate(previous) if previous.enabled else deactivate()


@contextlib.contextmanager
def capture(spec: TelemetrySpec) -> Iterator[dict]:
    """Record one unit of work into private instruments.

    Installs fresh instruments for the surfaces ``spec`` names, and
    restores the caller's telemetry on exit.  Tracing and profiling are
    the caller's: when those are on, the unit writes spans and callback
    sites straight into the caller's tracer and profiler.  Neither is
    ever shipped between processes, so in a pool worker, which starts
    with telemetry off, the unit records neither.  With nothing on, the
    unit runs under the disabled default, so nothing it does lands in
    the caller's telemetry.  The yielded dict is filled on a clean exit
    with one snapshot per named surface (``"metrics"``, ``"causes"``,
    ``"health"``, in that order), ready for :meth:`Telemetry.merge`.
    """
    global _active
    previous = _active
    telemetry = _DISABLED
    if (spec.metrics or spec.causes or spec.health
            or previous.tracing_on or previous.profiling_on):
        telemetry = Telemetry(metrics=spec.metrics,
                              tracing=previous.tracing_on,
                              profiling=previous.profiling_on,
                              causes=spec.causes, health=spec.health)
        telemetry.tracer = previous.tracer
        telemetry.profiler = previous.profiler
    _active = telemetry
    snapshot: dict = {}
    try:
        yield snapshot
    finally:
        _active = previous
    if spec.metrics:
        snapshot["metrics"] = telemetry.metrics.snapshot()
    if spec.causes:
        snapshot["causes"] = telemetry.causes.snapshot()
    if spec.health:
        snapshot["health"] = telemetry.health.snapshot()
