"""Event-loop profiling: per-callback-site event counts and wall time.

Every event loop created while telemetry is active shares one
:class:`EventLoopProfiler` (a Workbench run spawns thousands of
per-session loops; the interesting view is the aggregate).  The profiler
attributes each fired callback to a *site* — a stable name derived from
the callback object itself (``Class.method`` for bound methods,
``module:qualname`` otherwise, looking through ``functools.partial``),
so the chat pushes a viewing session schedules show up as
``session:_push_chat`` and its API retries as
``ViewingSession._api_send`` rather than disappearing into an anonymous
bucket.

Wall time is measured around the callback invocation only; nothing is
fed back into the loop, so profiling cannot change event ordering.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Tuple


def callback_site(callback: Callable[..., object]) -> str:
    """A stable, human-readable name for a scheduled callback."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    bound_self = getattr(callback, "__self__", None)
    if bound_self is not None:
        return f"{type(bound_self).__name__}.{callback.__name__}"
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        module = getattr(callback, "__module__", "") or ""
        short = module.rsplit(".", 1)[-1]
        return f"{short}:{qualname}" if short else qualname
    return type(callback).__name__


class SiteStats:
    """Accumulated cost of one callback site."""

    __slots__ = ("count", "wall_s")

    def __init__(self) -> None:
        self.count = 0
        self.wall_s = 0.0


class EventLoopProfiler:
    """Aggregates fired-event attribution across event loops."""

    def __init__(self) -> None:
        self.sites: Dict[str, SiteStats] = {}
        self.events_profiled = 0
        self.queue_depth_high_water = 0

    # ------------------------------------------------------------ loop hooks

    def run_callback(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback``, attributing its wall time to its site."""
        site = callback_site(callback)
        started = time.perf_counter()
        try:
            callback()
        finally:
            elapsed = time.perf_counter() - started
            stats = self.sites.get(site)
            if stats is None:
                stats = self.sites[site] = SiteStats()
            stats.count += 1
            stats.wall_s += elapsed
            self.events_profiled += 1

    def note_queue_depth(self, depth: int) -> None:
        if depth > self.queue_depth_high_water:
            self.queue_depth_high_water = depth

    # --------------------------------------------------------------- results

    def table(self) -> List[Tuple[str, int, float]]:
        """(site, count, wall seconds) rows, costliest first."""
        rows = [
            (site, stats.count, stats.wall_s)
            for site, stats in self.sites.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows
