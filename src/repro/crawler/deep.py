"""The deep crawl: recursive quadtree zoom over the world map.

Reproduces Section 4's discovery procedure: query an area, and because
the map response caps how many broadcasts it lists, split the area into
four and recurse wherever zooming keeps revealing substantially more
broadcasts.  The output is the Fig. 1 discovery curve (cumulative
broadcasts vs. areas queried) plus the per-area counts used to choose
the targeted-crawl areas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro import obs
from repro.crawler.client import CRAWL_PACE_S, CrawlClient
from repro.protocols.http import HttpResponse
from repro.service.geo import GeoRect

#: Zoom into a quadrant only while an area lists at least this many
#: broadcasts (enough to suggest the response was truncated)...
MIN_RESULT_TO_ZOOM = 12
#: ...and, below the world view, keeps adding this many new ones.
MIN_NEW_TO_ZOOM = 6


@dataclass
class AreaRecord:
    """One queried area and what it returned."""

    rect: GeoRect
    depth: int
    queried_at: float
    broadcast_ids: List[str]
    new_ids: int


@dataclass
class DeepCrawlResult:
    """Everything a deep crawl produced."""

    areas: List[AreaRecord] = field(default_factory=list)
    discovered: Set[str] = field(default_factory=set)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at

    def discovery_curve(self) -> List[Tuple[int, int]]:
        """(areas queried, cumulative distinct broadcasts) — Fig. 1(a)."""
        seen: Set[str] = set()
        curve: List[Tuple[int, int]] = []
        for index, record in enumerate(self.areas, start=1):
            seen.update(record.broadcast_ids)
            curve.append((index, len(seen)))
        return curve

    def relative_curve(self) -> List[Tuple[float, float]]:
        """(% of areas, % of broadcasts), areas ordered by yield —
        Fig. 1(b)'s 'half the areas hold >=80%' view."""
        if not self.areas or not self.discovered:
            return []
        ordered = sorted(self.areas, key=lambda a: len(a.broadcast_ids), reverse=True)
        seen: Set[str] = set()
        curve: List[Tuple[float, float]] = []
        for index, record in enumerate(ordered, start=1):
            seen.update(record.broadcast_ids)
            curve.append((100.0 * index / len(ordered), 100.0 * len(seen) / len(self.discovered)))
        return curve

    def top_areas(self, count: int) -> List[GeoRect]:
        """The most active leaf areas — input for the targeted crawl."""
        leaves = [a for a in self.areas if a.depth > 0]
        leaves.sort(key=lambda a: len(a.broadcast_ids), reverse=True)
        return [a.rect for a in leaves[:count]]


class DeepCrawler:
    """Breadth-first quadtree crawl driven by one identity.

    Zoom rule: recurse into a quadrant while the response is large enough
    to suggest truncation or while it keeps adding substantially new
    broadcasts — "until it no longer discovers substantially more".
    """

    def __init__(self, client: CrawlClient, max_depth: int = 5) -> None:
        self.client = client
        self.max_depth = max_depth
        self.result = DeepCrawlResult()
        self._pending: List[Tuple[GeoRect, int]] = []
        self._running = False

    def start(self) -> None:
        """Begin the crawl from the whole world."""
        if self._running:
            raise RuntimeError("crawl already running")
        self._running = True
        self.result.started_at = self.client.loop.now
        self._pending.append((GeoRect.world(), 0))
        self._next_query()

    def _next_query(self) -> None:
        if not self._pending:
            self._running = False
            self.result.finished_at = self.client.loop.now
            return
        rect, depth = self._pending.pop(0)
        self.client.map_query(
            rect, lambda resp, now, r=rect, d=depth: self._on_response(resp, now, r, d)
        )

    def _on_response(self, response: HttpResponse, now: float, rect: GeoRect, depth: int) -> None:
        ids = [b["id"] for b in (response.json_body or {}).get("broadcasts", [])]
        new_ids = [i for i in ids if i not in self.result.discovered]
        self.result.discovered.update(new_ids)
        self.result.areas.append(
            AreaRecord(rect=rect, depth=depth, queried_at=now,
                       broadcast_ids=ids, new_ids=len(new_ids))
        )
        telemetry = obs.active()
        if telemetry.enabled and telemetry.metrics_on:
            metrics = telemetry.metrics
            metrics.counter(
                "crawl_areas_queried_total", "Map areas queried by deep crawls",
                identity=self.client.identity,
            ).inc()
            metrics.counter(
                "crawl_broadcasts_discovered_total",
                "Distinct broadcasts first seen by deep crawls",
                identity=self.client.identity,
            ).inc(len(new_ids))
            metrics.histogram(
                "crawl_area_yield_broadcasts",
                "Broadcasts returned per map query",
                buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128),
                identity=self.client.identity,
            ).observe(float(len(ids)))
        should_zoom = (
            depth < self.max_depth
            and len(ids) >= MIN_RESULT_TO_ZOOM
            and (depth == 0 or len(new_ids) >= MIN_NEW_TO_ZOOM)
        )
        if should_zoom:
            for quadrant in rect.quadrants():
                self._pending.append((quadrant, depth + 1))
        # Pace the next request (the 429 limiter would throttle us anyway).
        self.client.loop.schedule(CRAWL_PACE_S, self._next_query)
