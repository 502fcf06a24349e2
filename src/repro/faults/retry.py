"""The shared bounded-retry policy.

One policy object describes how any client in the simulation retries a
failed operation: exponential backoff with a cap, an attempt budget, an
optional wall-deadline (in *simulated* seconds), and optional seeded
jitter.  Crawler 429 backoff, HLS playlist/segment re-fetch, API-call
retries, and the RTMP reconnect probe all walk instances of the same
policy, so "retry counts bounded by policy" is a single invariant the
test suite can assert everywhere.

Determinism: jitter draws come only from an explicitly injected
``random.Random`` (a :func:`repro.util.rng.child_rng` stream).  A policy
with ``jitter_frac == 0`` or no rng consumes no randomness at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries a failing operation.

    ``delay_for(attempt)`` yields the wait before retry number
    ``attempt`` (1-based), or ``None`` once the attempt budget is spent.
    Frozen and hashable so plans embedding a policy stay picklable for
    the process pool.
    """

    #: Delay before the first retry.
    base_delay_s: float = 0.5
    #: Multiplier applied per subsequent retry (1.0 = constant backoff).
    factor: float = 2.0
    #: Ceiling on any single delay.
    max_delay_s: float = 8.0
    #: Total retry attempts before giving up.
    max_attempts: int = 6
    #: Multiplicative jitter: each delay is scaled by a uniform factor in
    #: ``[1 - jitter_frac, 1 + jitter_frac]`` when an rng is supplied.
    jitter_frac: float = 0.0
    #: Optional budget on total elapsed retry time (simulated seconds);
    #: a retry that would land past the deadline is not attempted.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("retry delays must be non-negative")
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_attempts < 0:
            raise ValueError("attempt budget must be non-negative")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter fraction must be in [0, 1)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline must be positive when set")

    def delay_for(
        self, attempt: int, rng: Optional[random.Random] = None
    ) -> Optional[float]:
        """Backoff before retry ``attempt`` (1-based); None = give up."""
        if attempt < 1:
            raise ValueError("attempts count from 1")
        if attempt > self.max_attempts:
            return None
        delay = min(self.max_delay_s, self.base_delay_s * self.factor ** (attempt - 1))
        if rng is not None and self.jitter_frac > 0.0:
            delay *= 1.0 + self.jitter_frac * (2.0 * rng.random() - 1.0)
        return delay


class RetrySchedule:
    """Per-operation retry state walking one :class:`RetryPolicy`.

    Tracks the attempt counter and the elapsed-time deadline; callers
    ask :meth:`next_delay` with the current simulated time and either
    get a backoff delay or ``None`` (budget exhausted — degrade
    gracefully).
    """

    def __init__(
        self,
        policy: RetryPolicy,
        rng: Optional[random.Random] = None,
        started_at: float = 0.0,
    ) -> None:
        self.policy = policy
        self.rng = rng
        self.started_at = started_at
        self.attempts = 0

    def next_delay(self, now: float) -> Optional[float]:
        """Delay before the next retry, or None once the budget is out."""
        self.attempts += 1
        delay = self.policy.delay_for(self.attempts, self.rng)
        if delay is None:
            return None
        deadline = self.policy.deadline_s
        if deadline is not None and (now - self.started_at) + delay > deadline:
            return None
        return delay


#: The crawler's historical behaviour was a constant 2 s backoff with no
#: cap; the migrated default keeps the first retry at 2 s but bounds the
#: loop (satellite bugfix: a permanently-429ing service must terminate).
CRAWLER_RETRY = RetryPolicy(
    base_delay_s=2.0, factor=2.0, max_delay_s=16.0, max_attempts=8
)

#: The HLS player's historical behaviour was a fixed 1 s re-poll; the
#: policy keeps every delay at 1 s with a budget far beyond any 60 s
#: watch, so unfaulted sessions are bit-identical to the old loop.
HLS_TRANSPORT_RETRY = RetryPolicy(
    base_delay_s=1.0, factor=1.0, max_delay_s=1.0, max_attempts=120
)

#: Default policy for fault scenarios: exponential backoff with seeded
#: jitter and a deadline, per the app-resilience playbook.
FAULT_RETRY = RetryPolicy(
    base_delay_s=0.4,
    factor=2.0,
    max_delay_s=6.0,
    max_attempts=6,
    jitter_frac=0.25,
    deadline_s=30.0,
)
