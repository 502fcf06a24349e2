"""Monsoon Power Monitor simulator.

The paper attached a Galaxy S4 to a Monsoon monitor and recorded with
the PowerTool software.  The real instrument samples at 5 kHz; for the
averages Figure 7 reports, a model with per-sample measurement noise
and slow workload fluctuation reproduces what PowerTool's export gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.energy.components import Radio
from repro.energy.states import AppState, state_power_mw

#: The Monsoon's sampling rate (we sample a decimated 50 Hz — PowerTool
#: exports are typically downsampled for analysis).
SAMPLE_HZ = 50.0
#: Standard deviation of the per-sample white measurement noise.
NOISE_MW = 25.0
#: Scale of the slow random-walk workload component.
WORKLOAD_WANDER_MW = 60.0


@dataclass
class PowerTrace:
    """One recording: (time, mW) samples plus metadata."""

    state: AppState
    radio: Radio
    samples: List[Tuple[float, float]] = field(default_factory=list)

    def average_mw(self) -> float:
        if not self.samples:
            raise ValueError("empty trace")
        return sum(p for _, p in self.samples) / len(self.samples)


class MonsoonMonitor:
    """Records power traces of app states with realistic variation.

    Per-sample white measurement noise plus a slow random-walk workload
    component (the app's duty cycles are not perfectly constant).
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def record(
        self,
        state: AppState,
        radio: Radio,
        duration_s: float = 60.0,
    ) -> PowerTrace:
        """Record one state for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        base = state_power_mw(state, radio)
        trace = PowerTrace(state=state, radio=radio)
        wander = 0.0
        steps = int(duration_s * SAMPLE_HZ)
        for index in range(steps):
            t = index / SAMPLE_HZ
            # Mean-reverting workload wander.
            wander += self.rng.gauss(0.0, WORKLOAD_WANDER_MW / 10.0) - 0.05 * wander
            noise = self.rng.gauss(0.0, NOISE_MW)
            power = max(0.0, base + wander + noise)
            trace.samples.append((t, power))
        return trace

    def measure_average(
        self, state: AppState, radio: Radio, duration_s: float = 60.0
    ) -> float:
        """The Figure 7 quantity: mean power of a recording."""
        return self.record(state, radio, duration_s).average_mw()
