"""Link impairments: loss, jitter, and flaps that respect FIFO order.

:mod:`repro.netsim.connection` assumes links are lossless in-order
conduits (real TCP hides loss from the application the same way), so an
impairment may never *drop* or *reorder* a packet.  Instead, every
impairment is expressed as extra serialization-side delay inside
``Link.send``:

* **loss** — a "lost" packet is retransmitted after a recovery timeout;
  each retransmission adds ``recovery_s`` plus another transmission time
  to the link's busy horizon.  That is exactly the head-of-line blocking
  an in-order transport exhibits, and it is monotone in ``_busy_until``,
  so FIFO delivery and the calendar queue's determinism are preserved.
* **jitter** — a non-negative random delay added before serialization
  starts (wireless scheduling / retransmission noise below the loss
  threshold).
* **flaps** — precomputed down windows; a packet arriving during one
  starts transmitting when the link comes back up.

All randomness comes from the single ``random.Random`` handed to the
impairment at construction — a dedicated ``child_rng`` stream — so a
plan with impairments disabled consumes zero draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import obs


@dataclass(frozen=True)
class LossSpec:
    """Packet-loss model parameters.

    ``model`` is ``"bernoulli"`` (i.i.d. per-packet loss at ``rate``) or
    ``"gilbert"`` (two-state Gilbert-Elliott: a good state with no loss
    and a bad/bursty state losing ``bad_loss`` of packets, transition
    probabilities sampled per packet).
    """

    model: str = "bernoulli"
    #: Bernoulli per-packet loss probability.
    rate: float = 0.0
    #: Gilbert-Elliott transition/emission probabilities.
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 0.25
    bad_loss: float = 0.5
    #: Recovery timeout charged per retransmission — a few RTTs on the
    #: simulated ~80 ms paths (fast retransmit rather than a full RTO;
    #: large enough to drain a jitter buffer under bursts, small enough
    #: that heavy loss degrades into *many* stalls instead of
    #: saturating the link into one continuous stall).
    recovery_s: float = 0.12
    #: Retransmissions before the model stops re-losing a packet (keeps
    #: worst-case delay bounded; real TCP would keep trying with larger
    #: timeouts, which the capped geometric sum approximates).
    max_retransmits: int = 6

    def __post_init__(self) -> None:
        if self.model not in ("bernoulli", "gilbert"):
            raise ValueError(f"unknown loss model {self.model!r}")
        for name in ("rate", "p_good_to_bad", "p_bad_to_good", "bad_loss"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.model == "bernoulli" and self.rate >= 1.0:
            raise ValueError("certain loss would never deliver a packet")
        if self.recovery_s < 0:
            raise ValueError("recovery timeout must be non-negative")
        if self.max_retransmits < 1:
            raise ValueError("need at least one retransmission attempt")

    @property
    def active(self) -> bool:
        if self.model == "bernoulli":
            return self.rate > 0.0
        return self.p_good_to_bad > 0.0 and self.bad_loss > 0.0


class LossProcess:
    """Stateful sampler for one link's loss sequence."""

    def __init__(self, spec: LossSpec, rng: random.Random) -> None:
        self.spec = spec
        self._rng = rng
        self._bad = False

    def sample_lost(self) -> bool:
        """Was this transmission attempt lost?  Advances the chain."""
        spec = self.spec
        if spec.model == "bernoulli":
            return self._rng.random() < spec.rate
        if self._bad:
            if self._rng.random() < spec.p_bad_to_good:
                self._bad = False
        else:
            if self._rng.random() < spec.p_good_to_bad:
                self._bad = True
        return self._bad and self._rng.random() < spec.bad_loss


@dataclass(frozen=True)
class OutageSpec:
    """A Poisson process of down windows with uniform durations.

    Used both for link flaps (netsim layer) and ingest-server outage
    windows (service layer); the same shape as the broadcaster-uplink
    outage model in :class:`repro.service.delivery.UplinkModel`.
    """

    rate_per_s: float = 0.0
    min_down_s: float = 0.5
    max_down_s: float = 3.0

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ValueError("outage rate must be non-negative")
        if self.min_down_s < 0 or self.max_down_s < self.min_down_s:
            raise ValueError("need 0 <= min_down_s <= max_down_s")

    @property
    def active(self) -> bool:
        return self.rate_per_s > 0.0 and self.max_down_s > 0.0

    def windows(
        self, rng: random.Random, start: float, duration_s: float
    ) -> List[Tuple[float, float]]:
        """Non-overlapping (start, end) windows within the horizon."""
        result: List[Tuple[float, float]] = []
        if not self.active:
            return result
        t = start
        while True:
            t += rng.expovariate(self.rate_per_s)
            if t >= start + duration_s:
                return result
            length = rng.uniform(self.min_down_s, self.max_down_s)
            result.append((t, t + length))
            t += length


class FlapSchedule:
    """Precomputed down windows a link transmission must skip over."""

    def __init__(self, windows: Sequence[Tuple[float, float]]) -> None:
        self.windows = sorted(windows)
        previous_end = float("-inf")
        for window_start, window_end in self.windows:
            if window_end < window_start:
                raise ValueError("flap window ends before it starts")
            if window_start < previous_end:
                raise ValueError("flap windows must not overlap")
            previous_end = window_end

    def defer(self, t: float) -> float:
        """Earliest time >= ``t`` at which the link is up."""
        for window_start, window_end in self.windows:
            if window_start <= t < window_end:
                return window_end
            if t < window_start:
                break
        return t


class LinkImpairment:
    """Everything wrong with one link, applied inside ``Link.send``.

    ``apply(start, tx_time)`` takes the serialization start the healthy
    link computed and returns ``(new_start, extra_busy_s)``: the start
    deferred past flaps and jitter, plus head-of-line recovery time for
    retransmissions.  Both terms only ever push the busy horizon later,
    never earlier, so per-link FIFO order is preserved by construction.
    """

    def __init__(
        self,
        rng: random.Random,
        loss: Optional[LossSpec] = None,
        jitter_s: float = 0.0,
        flaps: Optional[FlapSchedule] = None,
        name: str = "link",
    ) -> None:
        if jitter_s < 0:
            raise ValueError("jitter stddev must be non-negative")
        self._rng = rng
        self.loss = LossProcess(loss, rng) if loss is not None and loss.active else None
        self.jitter_s = jitter_s
        self.flaps = flaps
        self.name = name
        self.packets_seen = 0
        self.packets_lost = 0
        self.retransmissions = 0
        self.flap_defer_s = 0.0
        self.jitter_added_s = 0.0
        self.recovery_added_s = 0.0

    def apply(self, start: float, tx_time: float) -> Tuple[float, float]:
        """(deferred serialization start, extra busy-time after tx)."""
        self.packets_seen += 1
        deferred = start
        if self.flaps is not None:
            deferred = self.flaps.defer(deferred)
            self.flap_defer_s += deferred - start
        if self.jitter_s > 0.0:
            jitter = abs(self._rng.gauss(0.0, self.jitter_s))
            deferred += jitter
            self.jitter_added_s += jitter
        extra = 0.0
        if self.loss is not None and self.loss.sample_lost():
            self.packets_lost += 1
            spec = self.loss.spec
            attempts = 1
            extra = spec.recovery_s + tx_time
            while attempts < spec.max_retransmits and self.loss.sample_lost():
                attempts += 1
                extra += spec.recovery_s + tx_time
            self.retransmissions += attempts
            self.recovery_added_s += extra
            telemetry = obs.active()
            if telemetry.enabled and telemetry.metrics_on:
                telemetry.metrics.counter(
                    "faults_injected_total",
                    "Fault events injected across layers",
                    kind="packet-loss", link=self.name,
                ).inc()
        return deferred, extra
