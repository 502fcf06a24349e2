"""The targeted crawl: four identities polling the most active areas.

Section 4: half the areas of a deep crawl hold at least 80% of its
broadcasts, so 64 high-yield areas are split across four logged-in
emulators that poll them continuously; a full round completes in about
50 seconds — fine-grained enough to estimate broadcast durations.  The
inline script also feeds every newly discovered id through
``/getBroadcasts`` to harvest viewer counts and replay availability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crawler.client import CRAWL_PACE_S, CrawlClient
from repro.protocols.http import HttpResponse
from repro.service.geo import GeoRect

#: getBroadcasts accepts batches of ids; keep requests reasonably sized.
GET_BROADCASTS_BATCH = 100

#: A broadcast counts as completed when it was not seen in the crawl's
#: final minute.
COMPLETED_GRACE_S = 60.0


@dataclass
class TrackedBroadcast:
    """Everything the crawl learned about one broadcast."""

    broadcast_id: str
    first_seen: float
    last_seen: float
    start_time: Optional[float] = None
    viewer_samples: List[float] = field(default_factory=list)
    available_for_replay: Optional[bool] = None

    @property
    def avg_viewers(self) -> float:
        if not self.viewer_samples:
            return 0.0
        return sum(self.viewer_samples) / len(self.viewer_samples)

    def duration_estimate(self) -> Optional[float]:
        """Paper's estimator: last-seen time minus the start time from the
        description."""
        if self.start_time is None:
            return None
        return max(0.0, self.last_seen - self.start_time)


class TargetedCrawl:
    """Continuous polling of assigned areas by several identities."""

    def __init__(
        self,
        clients: Sequence[CrawlClient],
        areas: Sequence[GeoRect],
        duration_s: float,
    ) -> None:
        if not clients:
            raise ValueError("need at least one crawler identity")
        if not areas:
            raise ValueError("need at least one area")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.clients = list(clients)
        self.duration_s = duration_s
        #: Areas are split across identities round-robin, as the paper
        #: divided its 64 areas into four sets.
        self.assignments: List[List[GeoRect]] = [[] for _ in self.clients]
        for index, area in enumerate(areas):
            self.assignments[index % len(self.clients)].append(area)
        self.tracked: Dict[str, TrackedBroadcast] = {}
        self.rounds_completed = [0] * len(self.clients)
        self.round_durations: List[float] = []
        self._started_at = 0.0
        self._ended_at = 0.0
        self._describe_queue: List[str] = []
        #: Round-robin refresh of already known broadcasts so viewer
        #: counts are sampled across each broadcast's life.
        self._refresh_ring: List[str] = []
        self._refresh_cursor = 0
        #: One float per distinct ``n_watching`` count, shared by every
        #: viewer sample of that value, so a retained sample costs one
        #: list slot rather than a float object of its own.
        self._sample_values: Dict[int, float] = {}

    # ------------------------------------------------------------------ drive

    def start(self) -> None:
        self._started_at = self.clients[0].loop.now
        self._ended_at = self._started_at + self.duration_s
        for index, client in enumerate(self.clients):
            self._start_round(index, client)

    def _start_round(self, index: int, client: CrawlClient) -> None:
        if client.loop.now >= self._ended_at:
            return
        areas = self.assignments[index]
        if not areas:
            return
        round_start = client.loop.now
        self._query_area(index, client, areas, 0, round_start)

    def _query_area(
        self, index: int, client: CrawlClient, areas: List[GeoRect],
        position: int, round_start: float,
    ) -> None:
        if client.loop.now >= self._ended_at:
            return
        if position >= len(areas):
            self.rounds_completed[index] += 1
            self.round_durations.append(client.loop.now - round_start)
            self._flush_describe_queue(client)
            client.loop.schedule(
                CRAWL_PACE_S, lambda: self._start_round(index, client)
            )
            return
        client.map_query(
            areas[position],
            lambda resp, now: self._on_map_response(
                resp, now, index, client, areas, position, round_start
            ),
        )

    def _on_map_response(
        self, response: HttpResponse, now: float, index: int,
        client: CrawlClient, areas: List[GeoRect], position: int,
        round_start: float,
    ) -> None:
        for entry in (response.json_body or {}).get("broadcasts", []):
            broadcast_id = entry["id"]
            tracked = self.tracked.get(broadcast_id)
            if tracked is None:
                self.tracked[broadcast_id] = TrackedBroadcast(
                    broadcast_id=broadcast_id, first_seen=now, last_seen=now
                )
                self._describe_queue.append(broadcast_id)
                self._refresh_ring.append(broadcast_id)
            else:
                tracked.last_seen = now
        client.loop.schedule(
            CRAWL_PACE_S,
            lambda: self._query_area(index, client, areas, position + 1, round_start),
        )

    def _flush_describe_queue(self, client: CrawlClient) -> None:
        """The paper's trick: replace a /getBroadcasts request's contents
        with the ids found since the previous one."""
        batch = self._describe_queue[:GET_BROADCASTS_BATCH]
        del self._describe_queue[: len(batch)]
        # Fill the rest of the batch with refreshes of known broadcasts.
        refresh_budget = GET_BROADCASTS_BATCH - len(batch)
        for _ in range(min(refresh_budget, len(self._refresh_ring))):
            self._refresh_cursor = (self._refresh_cursor + 1) % len(self._refresh_ring)
            candidate = self._refresh_ring[self._refresh_cursor]
            if candidate not in batch:
                batch.append(candidate)
        if not batch:
            return
        client.get_broadcasts(batch, self._on_descriptions)

    def _on_descriptions(self, response: HttpResponse, now: float) -> None:
        ended_ids = []
        for desc in (response.json_body or {}).get("broadcasts", []):
            tracked = self.tracked.get(desc["id"])
            if tracked is None:
                continue
            tracked.start_time = desc.get("start")
            tracked.available_for_replay = desc.get("available_for_replay")
            if desc.get("state") == "RUNNING":
                n_watching = desc.get("n_watching", 0)
                sample = self._sample_values.get(n_watching)
                if sample is None:
                    sample = self._sample_values[n_watching] = float(n_watching)
                tracked.viewer_samples.append(sample)
            else:
                ended_ids.append(desc["id"])
        if ended_ids:
            # Stop burning refresh budget on finished broadcasts.
            ended = set(ended_ids)
            self._refresh_ring = [i for i in self._refresh_ring if i not in ended]
            self._refresh_cursor = 0

    # ---------------------------------------------------------------- results

    def completed_broadcasts(self) -> List[TrackedBroadcast]:
        """Broadcasts that ended during the crawl: not seen within the
        final :data:`COMPLETED_GRACE_S` (the paper's inclusion rule for
        durations)."""
        cutoff = self._ended_at - COMPLETED_GRACE_S
        return [
            t
            for t in self.tracked.values()
            if t.last_seen < cutoff and t.start_time is not None
        ]

    @property
    def mean_round_s(self) -> float:
        if not self.round_durations:
            return 0.0
        return sum(self.round_durations) / len(self.round_durations)
