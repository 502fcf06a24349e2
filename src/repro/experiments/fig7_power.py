"""Figure 7: average power consumption per app state, WiFi vs LTE.

Measured with the simulated Monsoon monitor over the component power
model; the renderer prints the grouped-bar figure with the paper's
values side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.charts import render_bars, render_table
from repro.energy.components import Radio
from repro.energy.monsoon import MonsoonMonitor
from repro.energy.states import PAPER_FIGURE7_MW, AppState
from repro.util.rng import child_rng


@dataclass
class Fig7Result:
    #: state -> (wifi mW, lte mW) as measured by the Monsoon model.
    measured: Dict[AppState, Tuple[float, float]]

    def chat_overhead_mw(self, radio_index: int = 0) -> float:
        return (
            self.measured[AppState.VIDEO_HLS_CHAT_ON][radio_index]
            - self.measured[AppState.VIDEO_HLS_CHAT_OFF][radio_index]
        )

    def render(self) -> str:
        bars = {
            state.value: {"wifi": wifi, "lte": lte}
            for state, (wifi, lte) in self.measured.items()
        }
        parts = ["Fig 7: average power (mW) per app state"]
        parts.append(render_bars(bars, unit="mW"))
        parts.append("")
        rows = []
        for state, (wifi, lte) in self.measured.items():
            paper_wifi, paper_lte = PAPER_FIGURE7_MW[state]
            rows.append([
                state.value,
                f"{wifi:.0f}", f"{paper_wifi:.0f}",
                f"{lte:.0f}", f"{paper_lte:.0f}",
            ])
        parts.append(render_table(
            ["state", "wifi (model)", "wifi (paper)", "lte (model)", "lte (paper)"],
            rows,
        ))
        return "\n".join(parts)


def run(seed: int = 2016, duration_s: float = 30.0) -> Fig7Result:
    monitor = MonsoonMonitor(child_rng(seed, "monsoon"))
    measured = {}
    for state in AppState:
        wifi = monitor.measure_average(state, Radio.WIFI, duration_s)
        lte = monitor.measure_average(state, Radio.LTE, duration_s)
        measured[state] = (wifi, lte)
    return Fig7Result(measured=measured)
