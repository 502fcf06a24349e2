"""The living service: broadcast arrivals, the directory, discovery.

A :class:`ServiceWorld` evolves a population of broadcasts over simulated
time.  Arrivals follow a Poisson process thinned by the broadcaster-local
diurnal profile (so world-wide concurrency breathes with the sun, and a
crawl at a different time of day finds a different count — the paper's
deep crawls found between 1K and 4K).  Discovery mirrors the app:

* ``query_map`` — the /mapGeoBroadcastFeed behaviour, returning at most a
  cap of broadcasts per rectangle (which is why the crawler must zoom);
* ``teleport`` — a *popularity-biased* random pick; this bias is how a
  47%-HLS session mix coexists with >90% of broadcasts having <20
  viewers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.service.broadcast import Broadcast, sample_broadcast
from repro.service.geo import GeoRect, local_hour, sample_location
from repro.util.rng import child_rng
from repro.util.sampling import DIURNAL_PROFILE, diurnal_weight


@dataclass
class WorldParameters:
    """Scale and behaviour knobs of the simulated service."""

    #: Average number of concurrently live public broadcasts.
    mean_concurrent: int = 2500
    #: Maximum broadcasts one /mapGeoBroadcastFeed response lists.
    map_response_cap: int = 60
    #: Fraction of broadcasts whose location is undisclosed (invisible to
    #: the map, still reachable by Teleport).
    undisclosed_fraction: float = 0.22
    #: Fraction of broadcasts that are private (invisible to everything
    #: public; they exist so totals exceed what crawls can see).
    private_fraction: float = 0.10
    #: How long ended broadcasts stay resolvable via /getBroadcasts.
    ended_grace_s: float = 900.0
    #: Pre-roll applied at construction so t=0 starts in steady state.
    warmup_s: float = 3.0 * 3600.0

    #: Empirical mean broadcast duration under the samplers (seconds);
    #: used to convert target concurrency into an arrival rate.
    MEAN_DURATION_S = 600.0

    def __post_init__(self) -> None:
        if self.mean_concurrent < 1:
            raise ValueError("mean_concurrent must be positive")
        if not 0 <= self.undisclosed_fraction < 1:
            raise ValueError("undisclosed fraction must be in [0, 1)")
        if not 0 <= self.private_fraction < 1:
            raise ValueError("private fraction must be in [0, 1)")
        if self.ended_grace_s < 0:
            raise ValueError("ended_grace_s must be non-negative")


class ServiceWorld:
    """Deterministic, lazily evaluated broadcast population."""

    def __init__(self, params: WorldParameters, seed: int = 0) -> None:
        self.params = params
        self._rng = child_rng(seed, "service-world")
        self._mean_acceptance = sum(DIURNAL_PROFILE) / len(DIURNAL_PROFILE)
        #: Peak arrival rate before diurnal thinning (arrivals per second).
        self._peak_rate = (
            params.mean_concurrent
            / params.MEAN_DURATION_S
            / self._mean_acceptance
        )
        self._now = -params.warmup_s
        self._next_arrival = self._now + self._rng.expovariate(self._peak_rate)
        self._live: Dict[str, Broadcast] = {}
        self._ended: Dict[str, Broadcast] = {}
        #: Lightweight permanent registry: id -> broadcaster UTC offset
        #: (what the description's time zone would give an observer).
        self.utc_offset_by_id: Dict[str, int] = {}
        self.total_generated = 0
        self._last_retire_scan = self._now
        self.advance_to(0.0)

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Generate arrivals and retire endings up to UTC time ``t``.

        Every arrival is drawn in full, so the random stream does not
        depend on what is kept.  When the retire scan that closes this
        call runs, it drops every broadcast that ended before its grace
        cutoff, so an arrival that ends before that cutoff is counted and
        its offset registered but never enters the live set (ids have
        62**13 values and are taken as distinct).  That is most of the
        warm-up's pre-roll.
        """
        if t < self._now:
            raise ValueError("the world cannot move backwards in time")
        scan_due = t - self._last_retire_scan >= self.RETIRE_SCAN_INTERVAL_S
        grace_cutoff = t - self.params.ended_grace_s if scan_due else -math.inf
        while self._next_arrival <= t:
            arrival = self._next_arrival
            self._next_arrival = arrival + self._rng.expovariate(self._peak_rate)
            self._spawn(arrival, grace_cutoff)
        self._now = t
        if scan_due:
            self._retire(t, grace_cutoff)

    def _spawn(self, start_time: float, grace_cutoff: float) -> None:
        location, center = sample_location(self._rng)
        # Diurnal thinning: broadcasters are active according to their
        # local hour.  The rejected draws keep the RNG stream aligned.
        acceptance = diurnal_weight(local_hour(start_time, center.utc_offset_hours))
        if self._rng.random() >= acceptance:
            return
        broadcast = sample_broadcast(self._rng, start_time, location, center)
        broadcast.is_private = self._rng.random() < self.params.private_fraction
        # Undisclosed location: modelled as a flag the map query filters.
        broadcast.description_has_location = (
            self._rng.random() >= self.params.undisclosed_fraction
        )
        self.total_generated += 1
        self.utc_offset_by_id[broadcast.broadcast_id] = center.utc_offset_hours
        if broadcast.end_time < grace_cutoff:
            return
        self._live[broadcast.broadcast_id] = broadcast

    #: How often the retire scan runs (it is O(live set); callers advance
    #: time far more often than broadcasts end).
    RETIRE_SCAN_INTERVAL_S = 5.0

    def _retire(self, t: float, grace_cutoff: float) -> None:
        # End times are not monotone in arrival order (durations vary), so
        # scan the live set rather than trusting a queue order — but only
        # every few simulated seconds.
        self._last_retire_scan = t
        ended_now = [
            b_id for b_id, b in self._live.items() if b.end_time <= t
        ]
        for b_id in ended_now:
            self._ended[b_id] = self._live.pop(b_id)
        stale = [b_id for b_id, b in self._ended.items() if b.end_time < grace_cutoff]
        for b_id in stale:
            del self._ended[b_id]

    # ------------------------------------------------------------- discovery

    def live_broadcasts(self) -> List[Broadcast]:
        """All currently live broadcasts (omniscient view, for tests)."""
        return list(self._live.values())

    def live_count(self) -> int:
        return len(self._live)

    def get_broadcast(self, broadcast_id: str) -> Optional[Broadcast]:
        """Resolve an id to its broadcast (live or recently ended)."""
        return self._live.get(broadcast_id) or self._ended.get(broadcast_id)

    def query_map(self, rect: GeoRect, cap: Optional[int] = None) -> List[Broadcast]:
        """The /mapGeoBroadcastFeed behaviour: public, location-disclosed
        live broadcasts inside ``rect``, at most ``cap`` of them (most
        viewed first) — zooming in reveals more."""
        cap = cap if cap is not None else self.params.map_response_cap
        # Every map request of a crawl scans the whole live set, so the
        # scan makes no call per broadcast: Broadcast.is_live_at and the
        # edge-inclusive rectangle test are inlined.
        now = self._now
        south, west, north, east = rect.south, rect.west, rect.north, rect.east
        matches = [
            b
            for b in self._live.values()
            if not b.is_private
            and b.description_has_location
            and b.start_time <= now < b.start_time + b.duration_s
            and south <= b.location.lat <= north
            and west <= b.location.lon <= east
        ]
        matches.sort(key=lambda b: (-b.viewers_at(self._now), b.broadcast_id))
        return matches[:cap]

    #: Base weight added to every broadcast in the Teleport lottery so
    #: zero-viewer broadcasts are reachable (just rarely).
    TELEPORT_BASE_WEIGHT = 0.2

    def teleport(
        self, rng: random.Random, exclude: Optional[set] = None
    ) -> Optional[Broadcast]:
        """A popularity-biased random public broadcast (the app's Teleport
        button).

        ``exclude`` suppresses recently watched ids: at real service scale
        (~40 K live) Teleport practically never repeats, but a scaled-down
        world would otherwise resample its few popular broadcasts.
        """
        exclude = exclude or set()
        public = [
            b
            for b in self._live.values()
            if not b.is_private
            and b.is_live_at(self._now)
            and b.broadcast_id not in exclude
        ]
        if not public:
            return None
        weights = [
            b.viewers_at(self._now) + self.TELEPORT_BASE_WEIGHT for b in public
        ]
        total = sum(weights)
        pick = rng.random() * total
        acc = 0.0
        for broadcast, weight in zip(public, weights):
            acc += weight
            if pick < acc:
                return broadcast
        return public[-1]
