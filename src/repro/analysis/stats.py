"""Statistical tests.

Welch's unequal-variances t-test, implemented from first principles (no
scipy dependency in the library proper) with a high-accuracy Student-t
CDF via the regularized incomplete beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Significance level of the paper's t-tests.
ALPHA = 0.05


@dataclass(frozen=True)
class WelchResult:
    """Outcome of a Welch's t-test."""

    t_statistic: float
    degrees_of_freedom: float
    p_value: float
    mean_a: float
    mean_b: float

    def significant(self) -> bool:
        """Whether the difference is significant at :data:`ALPHA`."""
        return self.p_value < ALPHA


def _mean_var(samples: Sequence[float]) -> tuple:
    n = len(samples)
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, var, n


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Numerical Recipes)."""
    max_iter = 300
    eps = 3e-14
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError("incomplete beta did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) with the symmetry-accelerated continued fraction."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = a * math.log(x) + b * math.log(1.0 - x) - _log_beta(a, b)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """Survival function P(T > t) of Student's t."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = df / (df + t * t)
    p = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> WelchResult:
    """Two-sided Welch's t-test (unequal variances, unequal sizes)."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least two observations")
    mean_a, var_a, n_a = _mean_var(a)
    mean_b, var_b, n_b = _mean_var(b)
    se2 = var_a / n_a + var_b / n_b
    if se2 == 0.0:
        # Identical constant samples: no evidence of difference.
        return WelchResult(0.0, float(n_a + n_b - 2), 1.0, mean_a, mean_b)
    t = (mean_a - mean_b) / math.sqrt(se2)
    df = se2**2 / (
        (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
    )
    p = 2.0 * student_t_sf(abs(t), df)
    return WelchResult(t_statistic=t, degrees_of_freedom=df, p_value=min(p, 1.0),
                       mean_a=mean_a, mean_b=mean_b)
