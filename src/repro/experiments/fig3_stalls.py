"""Figure 3: stall-ratio analysis for RTMP streams.

Panel (a): the stall-ratio CDF without bandwidth limiting — most streams
play clean; a visible cluster around 0.05-0.09 corresponds to a single
3-5 s stall (a broadcaster uplink glitch).  Panel (b): stall-ratio
boxplots per bandwidth limit — stalling vanishes above 2 Mbps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.charts import render_boxplot_rows, render_cdf
from repro.experiments.common import Workbench
from repro.util.empirical import Ecdf, FiveNumberSummary, five_number_summary

CDF_GRID = (0.0, 0.01, 0.02, 0.05, 0.07, 0.09, 0.15, 0.25, 0.5, 0.75, 1.0)


@dataclass
class Fig3Result:
    unlimited_ratios: List[float]
    by_limit: Dict[float, List[float]]

    def cdf(self) -> Ecdf:
        return Ecdf(self.unlimited_ratios)

    def boxplots(self) -> Dict[str, FiveNumberSummary]:
        return {
            f"{limit:g}": five_number_summary(ratios)
            for limit, ratios in sorted(self.by_limit.items())
            if ratios
        }

    def clean_share(self) -> float:
        """Fraction of unlimited sessions with zero stalls."""
        return sum(1 for r in self.unlimited_ratios if r == 0.0) / len(
            self.unlimited_ratios
        )

    def single_stall_cluster_share(self) -> float:
        """Fraction in the 0.03-0.12 single-stall band."""
        return sum(1 for r in self.unlimited_ratios if 0.03 <= r <= 0.12) / len(
            self.unlimited_ratios
        )

    def median_ratio(self, limit: float) -> float:
        return five_number_summary(self.by_limit[limit]).median

    def render(self) -> str:
        parts = ["Fig 3(a): stall-ratio CDF, RTMP, no bandwidth limit"]
        parts.append(render_cdf({"rtmp": self.cdf()}, CDF_GRID, "stall ratio"))
        parts.append(f"zero-stall share: {self.clean_share():.2f}; "
                     f"single-stall cluster share: {self.single_stall_cluster_share():.2f}")
        parts.append("")
        parts.append("Fig 3(b): stall ratio vs bandwidth limit (Mbps)")
        parts.append(render_boxplot_rows(self.boxplots(), "stall ratio"))
        return "\n".join(parts)


def run(workbench: Workbench) -> Fig3Result:
    unlimited = workbench.unlimited()
    sweep = workbench.sweep()
    return Fig3Result(
        unlimited_ratios=[s.stall_ratio for s in unlimited.by_protocol("rtmp")],
        by_limit={
            limit: [s.stall_ratio for s in ds.by_protocol("rtmp")]
            for limit, ds in sweep.items()
        },
    )
