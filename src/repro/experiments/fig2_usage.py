"""Figure 2: broadcast durations, viewer counts and diurnal pattern.

Panel (a): CDFs of broadcast duration (minutes) and per-broadcast mean
viewers on a log-ish grid.  Panel (b): mean viewers per broadcast by the
broadcaster's *local* start hour — the early-morning slump, morning peak
and rise towards midnight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.charts import render_table
from repro.crawler.analysis import UsagePatterns, analyze_tracked
from repro.experiments.common import Workbench

#: Fig. 2(a)'s shared x grid (minutes for durations, count for viewers).
GRID = (0.1, 0.5, 1.0, 2.0, 4.0, 10.0, 30.0, 100.0, 1000.0)


@dataclass
class Fig2Result:
    patterns: UsagePatterns

    def duration_series(self) -> List[Tuple[float, float]]:
        return [(x, self.patterns.duration_cdf(x * 60.0)) for x in GRID]

    def viewers_series(self) -> List[Tuple[float, float]]:
        return [(x, self.patterns.viewers_cdf(x)) for x in GRID]

    def hour_series(self) -> Dict[int, float]:
        return self.patterns.viewers_by_local_hour

    def render(self) -> str:
        parts = ["Fig 2(a): duration & viewers CDFs"]
        rows = [
            [f"{x:g}", f"{d:.3f}", f"{v:.3f}"]
            for (x, d), (_, v) in zip(self.duration_series(), self.viewers_series())
        ]
        parts.append(render_table(
            ["duration (min) / viewers", "F(duration)", "F(viewers)"], rows))
        parts.append("")
        parts.append("Fig 2(b): avg viewers per broadcast vs local start hour")
        hours = self.hour_series()
        parts.append(render_table(
            ["local hour", "avg viewers"],
            [[h, f"{v:.1f}"] for h, v in sorted(hours.items())],
        ))
        parts.append("")
        parts.append("Section 4 aggregates")
        parts.append(render_table(
            ["statistic", "value"],
            [[name, f"{value:.3f}"] for name, value in self.patterns.summary_rows()],
        ))
        return "\n".join(parts)


def run(workbench: Workbench) -> Fig2Result:
    _, targeted = workbench.targeted_crawl()
    completed = targeted.completed_broadcasts()
    offsets = workbench.broadcast_utc_offsets()
    return Fig2Result(patterns=analyze_tracked(completed, utc_offsets=offsets))
