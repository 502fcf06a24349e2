"""Population-scale Fig. 2: audience shape at the full-service scale.

The targeted crawl behind :mod:`repro.experiments.fig2_usage` tracks a
few hundred broadcasts — the paper's vantage point.  This driver asks
the same Section 4 questions of a *population-scale* world: hundreds of
thousands of concurrent viewers apportioned over a heavy-tailed
broadcaster population, advanced as viewer cohorts in closed form
(:mod:`repro.world`), with a stratified sample of cohort members
promoted to full-fidelity sessions to anchor the aggregates.

Three panels:

* **(a)** the broadcaster-audience CDF and concentration statistics,
  exact over the whole population (the apportionment is integral);
* **(b)** per-protocol cohort masses — sessions, watch time, stall
  ratio, join delay, buffer occupancy — from the fluid model;
* **(c)** the anchored sample: the same statistics measured by the
  unchanged per-packet simulator on the promoted members, next to the
  cohort approximation they anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.charts import render_table
from repro.core.popstudy import PopulationResult, PopulationStudy
from repro.experiments.common import Workbench
from repro.world.popularity import PopulationParameters

#: Fig. 2(a)-style audience grid (concurrent viewers per broadcaster).
AUDIENCE_GRID = (0, 1, 2, 5, 10, 20, 50, 100, 1000, 10000)

#: Full-fidelity anchor budget (expected sampled sessions).
SAMPLE_BUDGET = 48


@dataclass
class Fig2PopResult:
    result: PopulationResult

    def render(self) -> str:
        population = self.result.population
        world = self.result.world
        sampled = self.result.sampled
        parts = [
            f"Fig 2pop(a): audience CDF over {population.n_broadcasters} "
            f"broadcasters / {population.total_viewers} viewers"
        ]
        parts.append(render_table(
            ["audience <=", "F(broadcasters)"],
            [[f"{x:g}", f"{population.audience_cdf(x):.3f}"]
             for x in AUDIENCE_GRID],
        ))
        parts.append("")
        parts.append(render_table(
            ["statistic", "value"],
            [
                ["zero-audience share",
                 f"{population.zero_audience_count() / population.n_broadcasters:.3f}"],
                ["top 1% viewer share", f"{population.top_share(0.01):.3f}"],
                ["top 10% viewer share", f"{population.top_share(0.10):.3f}"],
                ["cohorts", f"{world.cohorts}"],
                ["shards", f"{world.shard_count}"],
            ],
        ))
        parts.append("")
        parts.append("Fig 2pop(b): per-protocol cohort masses (fluid model)")
        rows = []
        for protocol_value, aggregate in sorted(world.totals.items()):
            mean_join_s = (aggregate.join_seconds / aggregate.sessions
                           if aggregate.sessions else 0.0)
            rows.append([
                protocol_value,
                f"{aggregate.sessions:.0f}",
                f"{aggregate.member_seconds:.0f}",
                f"{aggregate.stall_ratio():.4f}",
                f"{mean_join_s:.2f}",
                f"{aggregate.mean_buffer_s:.1f}",
            ])
        parts.append(render_table(
            ["protocol", "sessions", "member-s", "stall ratio",
             "join delay (s)", "buffer (media-s)"],
            rows,
        ))
        parts.append("")
        parts.append(
            f"Fig 2pop(c): anchored full-fidelity sample "
            f"({len(sampled.sessions)} sessions)"
        )
        anchor_rows = []
        for protocol_value in sorted(world.totals):
            sessions = sampled.by_protocol(protocol_value)
            if sessions:
                exact_stall = (
                    sum(s.total_stall_s for s in sessions)
                    / sum(s.total_stall_s + s.playback_s for s in sessions)
                )
                exact_join_s = sum(s.join_time_s for s in sessions) / len(sessions)
                anchor_rows.append([
                    protocol_value, f"{len(sessions)}",
                    f"{exact_stall:.4f}",
                    f"{self.result.stall_ratio(protocol_value):.4f}",
                    f"{exact_join_s:.2f}",
                    f"{self.result.mean_join_delay_s(protocol_value):.2f}",
                ])
            else:
                anchor_rows.append([
                    protocol_value, "0", "-",
                    f"{self.result.stall_ratio(protocol_value):.4f}",
                    "-",
                    f"{self.result.mean_join_delay_s(protocol_value):.2f}",
                ])
        parts.append(render_table(
            ["protocol", "sampled", "stall (exact)", "stall (cohort)",
             "join s (exact)", "join s (cohort)"],
            anchor_rows,
        ))
        return "\n".join(parts)


def run(workbench: Workbench, viewers: int = 100_000) -> Fig2PopResult:
    """Advance a ``viewers``-strong world on the workbench's settings."""
    params = PopulationParameters(viewers=viewers, sample_budget=SAMPLE_BUDGET)
    study = PopulationStudy(workbench.config, params)
    return Fig2PopResult(result=study.run())
