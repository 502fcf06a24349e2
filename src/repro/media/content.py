"""Stochastic content-complexity model.

The paper attributes the wide bitrate range observed at equal QP to
"extreme time variability of the captured content": some broadcasts are a
static talking head, others are soccer matches filmed off a TV screen.
We model per-frame *complexity* as a mean-reverting AR(1) process around
a per-genre mean, with occasional scene-change jumps.  Complexity is a
dimensionless multiplier on the bits needed at a given QP (1.0 = an
average scene).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class ContentProfile:
    """Statistical fingerprint of a broadcast genre."""

    name: str
    #: Long-run mean complexity (bits multiplier at fixed QP).
    mean_complexity: float
    #: AR(1) innovation scale — how jittery the content is frame to frame.
    volatility: float
    #: Probability per frame of a scene change (complexity jump).
    scene_change_rate: float
    #: Relative popularity of this genre among broadcasts.
    weight: float


#: Genres the paper's text mentions or implies, with relative prevalence.
CONTENT_PROFILES: Dict[str, ContentProfile] = {
    profile.name: profile
    for profile in (
        ContentProfile("static_talker", mean_complexity=0.45, volatility=0.02,
                       scene_change_rate=0.0005, weight=0.40),
        ContentProfile("indoor_event", mean_complexity=0.80, volatility=0.05,
                       scene_change_rate=0.002, weight=0.20),
        ContentProfile("outdoor_walk", mean_complexity=1.10, volatility=0.08,
                       scene_change_rate=0.004, weight=0.20),
        ContentProfile("sports_tv", mean_complexity=1.60, volatility=0.15,
                       scene_change_rate=0.008, weight=0.12),
        ContentProfile("concert", mean_complexity=1.35, volatility=0.12,
                       scene_change_rate=0.006, weight=0.08),
    )
}


_PROFILES = list(CONTENT_PROFILES.values())
_PROFILE_WEIGHT_TOTAL = sum([p.weight for p in _PROFILES])
#: Running sums of the genre weights, added one by one as a linear scan
#: would: a pick lands on the first genre whose running sum exceeds it.
_PROFILE_CUMULATIVE = list(itertools.accumulate(p.weight for p in _PROFILES))


def pick_profile(rng: random.Random) -> ContentProfile:
    """Draw a genre according to its prevalence weight."""
    pick = rng.random() * _PROFILE_WEIGHT_TOTAL
    index = bisect.bisect_right(_PROFILE_CUMULATIVE, pick)
    return _PROFILES[min(index, len(_PROFILES) - 1)]


class ContentProcess:
    """Per-frame complexity samples for one broadcast.

    AR(1) around the genre mean with multiplicative scene-change jumps:

    ``c[t+1] = c[t] + phi * (mean - c[t]) + N(0, volatility)``, and with
    probability ``scene_change_rate`` the state jumps to a fresh draw
    around the mean.  Values are clipped to a sane positive range.
    """

    #: Mean-reversion strength per frame.
    PHI = 0.05
    MIN_COMPLEXITY = 0.05
    MAX_COMPLEXITY = 4.0

    def __init__(self, profile: ContentProfile, rng: random.Random) -> None:
        self.profile = profile
        self._rng = rng
        self._state = self._fresh_scene()

    def _fresh_scene(self) -> float:
        draw = self._rng.gauss(self.profile.mean_complexity,
                               self.profile.mean_complexity * 0.3)
        return min(max(draw, self.MIN_COMPLEXITY), self.MAX_COMPLEXITY)

    @property
    def current(self) -> float:
        return self._state

    def step(self) -> float:
        """Advance one frame and return the new complexity."""
        if self._rng.random() < self.profile.scene_change_rate:
            self._state = self._fresh_scene()
            return self._state
        mean = self.profile.mean_complexity
        innovation = self._rng.gauss(0.0, self.profile.volatility)
        state = self._state + self.PHI * (mean - self._state) + innovation
        self._state = min(max(state, self.MIN_COMPLEXITY), self.MAX_COMPLEXITY)
        return self._state
