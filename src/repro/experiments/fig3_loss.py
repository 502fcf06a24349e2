"""Fault-plan companion to Figure 3: stalls vs. injected packet loss.

The paper attributes RTMP stalls to broadcaster uplink glitches; the
fault subsystem lets us dose that mechanism directly.  Each loss rate
reruns the *same* sampled sessions (fault randomness lives on separate
child streams, so the world, broadcasts, and joins are identical) with a
Bernoulli loss process on the viewer links.  Lost packets cost a
head-of-line-blocking recovery delay, so mean stall counts rise
monotonically with the loss rate — the sweep's acceptance invariant.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List

from repro.core.study import AutomatedViewingStudy
from repro.experiments.common import Workbench
from repro.faults.impair import LossSpec
from repro.faults.plan import FaultPlan
from repro.service.selection import DeliveryProtocol

#: The dosed loss rates: pristine, light, heavy.
LOSS_RATES = (0.0, 0.01, 0.05)

#: Modest shaping so recovery delays compete with real bandwidth (the
#: regime where Figure 3(b) shows stalling).
SWEEP_LIMIT_MBPS = 2.0


@dataclass
class Fig3LossResult:
    """Per-loss-rate stall counts for the forced-RTMP sweep."""

    stall_counts: Dict[float, List[int]]
    stall_ratios: Dict[float, List[float]]

    def mean_stalls(self, rate: float) -> float:
        counts = self.stall_counts[rate]
        if not counts:
            return 0.0
        return sum(counts) / len(counts)

    def monotone_nondecreasing(self) -> bool:
        """The sweep invariant: more loss never means fewer stalls on
        average."""
        rates = sorted(self.stall_counts)
        means = [self.mean_stalls(rate) for rate in rates]
        return all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def render(self) -> str:
        parts = ["Fig 3 (faulted): mean RTMP stalls vs. injected loss rate"]
        for rate in sorted(self.stall_counts):
            counts = self.stall_counts[rate]
            ratios = self.stall_ratios[rate]
            mean_ratio = sum(ratios) / len(ratios) if ratios else 0.0
            parts.append(
                f"  loss={rate:>5.2%}  sessions={len(counts):2d}  "
                f"mean stalls={self.mean_stalls(rate):5.2f}  "
                f"mean stall ratio={mean_ratio:.3f}"
            )
        verdict = "holds" if self.monotone_nondecreasing() else "VIOLATED"
        parts.append(f"  monotonicity (stalls non-decreasing in loss): {verdict}")
        return "\n".join(parts)


def _plan_for_rate(template: FaultPlan, rate: float) -> FaultPlan:
    """Dose ``template``'s loss model at ``rate``, keeping everything else.

    A Bernoulli template (or one without a loss spec) sweeps the i.i.d.
    per-packet ``rate``; a Gilbert-Elliott template sweeps the
    good-to-bad transition probability, so the burstiness shape from the
    CLI ``--faults`` spec is preserved while the dose varies.
    """
    loss = template.loss or LossSpec()
    if loss.model == "gilbert":
        loss = dataclasses.replace(loss, p_good_to_bad=rate)
    else:
        loss = dataclasses.replace(loss, rate=rate)
    return dataclasses.replace(template, loss=loss)


def run(workbench: Workbench) -> Fig3LossResult:
    """Run the forced-RTMP loss sweep off the workbench's seed/scale:
    :data:`LOSS_RATES`, each over ``sweep_sessions_per_limit`` sessions.

    A fresh study is built per rate so every rate replays the same world
    evolution and teleport choices; only the fault plan differs.  When
    the workbench carries a fault plan (CLI ``--faults``), it is the
    sweep's template: its loss model shape (e.g. Gilbert-Elliott
    burstiness) and non-loss faults apply at every rate, with only the
    loss dose swept.  Rate 0.0 always runs the pristine baseline.
    """
    n = workbench.sweep_sessions_per_limit
    template = workbench.config.faults
    stall_counts: Dict[float, List[int]] = {}
    stall_ratios: Dict[float, List[float]] = {}
    for rate in LOSS_RATES:
        if rate <= 0.0:
            faults = None
        elif template is not None:
            faults = _plan_for_rate(template, rate)
        else:
            faults = FaultPlan(loss=LossSpec(rate=rate))
        config = dataclasses.replace(workbench.config, faults=faults)
        study = AutomatedViewingStudy(config)
        dataset = study.run_batch(
            n,
            bandwidth_limit_mbps=SWEEP_LIMIT_MBPS,
            forced_protocol=DeliveryProtocol.RTMP,
        )
        stall_counts[rate] = [s.stall_count for s in dataset.sessions]
        stall_ratios[rate] = [s.stall_ratio for s in dataset.sessions]
    return Fig3LossResult(stall_counts=stall_counts, stall_ratios=stall_ratios)
