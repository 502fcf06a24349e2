"""Section 5's device comparison: Welch's t-tests, Galaxy S3 vs S4.

"Only the frame rate differs statistically significantly between the two
datasets" — which justifies pooling the devices for the QoE analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.charts import render_table
from repro.analysis.stats import WelchResult, welch_t_test
from repro.experiments.common import Workbench

#: Metric extractors compared across devices.
METRICS = {
    "join_time_s": lambda s: s.join_time_s,
    "stall_ratio": lambda s: s.stall_ratio,
    "playback_latency_s": lambda s: s.playback_latency_s,
    "video_bitrate_bps": lambda s: s.video_bitrate_bps,
    "avg_qp": lambda s: s.avg_qp,
    "avg_fps": lambda s: s.avg_fps,
}


@dataclass
class TtestResult:
    results: Dict[str, WelchResult]

    def significant_metrics(self) -> List[str]:
        return [m for m, r in self.results.items() if r.significant()]

    def render(self) -> str:
        rows = []
        for metric, result in self.results.items():
            rows.append([
                metric,
                f"{result.mean_a:.3g}", f"{result.mean_b:.3g}",
                f"{result.t_statistic:.2f}", f"{result.p_value:.4f}",
                "yes" if result.significant() else "no",
            ])
        return render_table(
            ["metric", "mean S3", "mean S4", "t", "p", "significant?"], rows)


def run(workbench: Workbench) -> TtestResult:
    dataset = workbench.unlimited()
    s3 = dataset.by_device("galaxy-s3")
    s4 = dataset.by_device("galaxy-s4")
    results: Dict[str, WelchResult] = {}
    for metric, extract in METRICS.items():
        a = [v for v in (extract(s) for s in s3) if v is not None]
        b = [v for v in (extract(s) for s in s4) if v is not None]
        if len(a) >= 2 and len(b) >= 2:
            results[metric] = welch_t_test(a, b)
    return TtestResult(results=results)
