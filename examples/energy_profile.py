#!/usr/bin/env python3
"""Power profiling with the simulated Monsoon monitor (Section 5.3).

Measures every Figure 7 app state over WiFi and LTE, prints the bars
next to the paper's values, and demonstrates the chat-energy mitigation
the paper proposes (avatar caching) through the component model.

Run:  python examples/energy_profile.py
"""

import random

from repro.analysis.charts import render_table
from repro.energy.components import GALAXY_S4_MODEL, Radio
from repro.energy.monsoon import MonsoonMonitor
from repro.energy.states import APP_STATES, PAPER_FIGURE7_MW, AppState


def main() -> None:
    monitor = MonsoonMonitor(random.Random(2016))

    rows = []
    for state in AppState:
        wifi = monitor.measure_average(state, Radio.WIFI, duration_s=20.0)
        lte = monitor.measure_average(state, Radio.LTE, duration_s=20.0)
        paper_wifi, paper_lte = PAPER_FIGURE7_MW[state]
        rows.append([state.value, f"{wifi:.0f}", f"{paper_wifi:.0f}",
                     f"{lte:.0f}", f"{paper_lte:.0f}"])
    print("Figure 7: average power per app state (mW)")
    print(render_table(
        ["state", "wifi (sim)", "wifi (paper)", "lte (sim)", "lte (paper)"],
        rows,
    ))

    print()
    print("Why chat costs so much (component breakdown, HLS over LTE):")
    off = APP_STATES[AppState.VIDEO_HLS_CHAT_OFF]
    on = APP_STATES[AppState.VIDEO_HLS_CHAT_ON]
    model = GALAXY_S4_MODEL
    breakdown = [
        ["CPU (DVFS, +1/3 clocks)", f"{model.cpu_mw(off.cpu_clock):.0f}",
         f"{model.cpu_mw(on.cpu_clock):.0f}"],
        ["GPU (DVFS, +1/3 clocks)", f"{model.gpu_mw(off.gpu_clock):.0f}",
         f"{model.gpu_mw(on.gpu_clock):.0f}"],
        ["LTE radio (0.5 -> 3.5 Mbps)",
         f"{model.radio_mw(Radio.LTE, off.throughput_mbps, off.radio_duty):.0f}",
         f"{model.radio_mw(Radio.LTE, on.throughput_mbps, on.radio_duty):.0f}"],
    ]
    print(render_table(["component", "chat off (mW)", "chat on (mW)"], breakdown))

    print()
    saved_radio = model.radio_mw(Radio.LTE, 3.5, 1.0) - model.radio_mw(Radio.LTE, 0.8, 1.0)
    print("Mitigation: caching profile pictures removes most of the avatar")
    print(f"traffic — roughly {saved_radio:.0f} mW of LTE radio power alone, plus")
    print("the CPU/GPU load of decoding the same JPEGs over and over.")


if __name__ == "__main__":
    main()
