"""Parametric samplers used by the workload generators.

The Periscope paper reports heavy-tailed broadcast durations and viewer
counts, plus a diurnal activity pattern; these helpers implement the
corresponding samplers with explicit bounds so that single extreme draws
cannot dominate a small experiment.
"""

from __future__ import annotations

import math
import random
from typing import Tuple


def bounded_lognormal(
    rng: random.Random,
    median: float,
    sigma: float,
    low: float,
    high: float,
) -> float:
    """Sample a log-normal with the given *median* and log-space *sigma*,
    rejection-clipped to ``[low, high]``.

    Rejection (rather than clamping) keeps the interior shape intact; after
    64 failed attempts the value is clamped as a safety valve.
    """
    if low > high:
        raise ValueError(f"low ({low}) must not exceed high ({high})")
    mu = math.log(median)
    for _ in range(64):
        value = rng.lognormvariate(mu, sigma)
        if low <= value <= high:
            return value
    return min(max(low, median), high)


def bounded_pareto(
    rng: random.Random,
    alpha: float,
    scale: float,
    high: float,
) -> float:
    """Sample a Pareto(alpha) with minimum ``scale``, truncated at ``high``
    by inverse-CDF sampling (exact truncation, no rejection loop)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if scale <= 0 or high <= scale:
        raise ValueError("require 0 < scale < high")
    # CDF of truncated Pareto: F(x) = (1 - (scale/x)^alpha) / (1 - (scale/high)^alpha)
    u = rng.random()
    tail = 1.0 - (scale / high) ** alpha
    x = scale / (1.0 - u * tail) ** (1.0 / alpha)
    return min(x, high)


#: Relative Periscope activity per local hour of day. Encodes the paper's
#: Figure 2(b) observations: a notable slump in the early hours, a peak in
#: the morning, and an increasing trend towards midnight.
DIURNAL_PROFILE: Tuple[float, ...] = (
    0.75,  # 00
    0.60,  # 01
    0.45,  # 02
    0.32,  # 03
    0.25,  # 04  -- early-hours slump
    0.28,  # 05
    0.40,  # 06
    0.62,  # 07
    0.85,  # 08
    0.95,  # 09  -- morning peak
    0.88,  # 10
    0.80,  # 11
    0.78,  # 12
    0.76,  # 13
    0.74,  # 14
    0.73,  # 15
    0.75,  # 16
    0.78,  # 17
    0.82,  # 18
    0.86,  # 19
    0.90,  # 20
    0.95,  # 21
    1.00,  # 22  -- rise towards midnight
    0.90,  # 23
)


def diurnal_weight(local_hour: float) -> float:
    """Relative activity weight at a fractional local hour.

    Linear interpolation over :data:`DIURNAL_PROFILE`, wrapping at 24h.
    """
    hour = local_hour % 24.0
    lo = int(hour) % 24
    hi = (lo + 1) % 24
    frac = hour - int(hour)
    return DIURNAL_PROFILE[lo] * (1.0 - frac) + DIURNAL_PROFILE[hi] * frac
