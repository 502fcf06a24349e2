"""Terminal rendering of the paper's figure types.

Benchmarks print these so the regenerated figure can be compared to the
paper at a glance: CDF curves (Figs. 1-3a, 5, 6a), boxplot rows per
bandwidth limit (Figs. 3b, 4), scatter summaries (Fig. 6b) and grouped
bars (Fig. 7).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

from repro.util.empirical import Ecdf, FiveNumberSummary
from repro.util.tables import render_table  # noqa: F401  (re-exported API)

#: Characters in a full-scale CDF spark bar (F(x) = 1).
CDF_BAR_WIDTH = 40
#: Characters in the longest bar of a grouped bar chart.
BAR_WIDTH = 36


def render_cdf(
    curves: Mapping[str, Ecdf],
    xs: Sequence[float],
    x_label: str,
) -> str:
    """Tabulated CDF curves on a fixed grid, with a spark bar per row."""
    headers = [x_label] + [f"{name} F(x)" for name in curves] + [""]
    rows: List[List[str]] = []
    first = next(iter(curves.values()))
    for x in xs:
        row: List[str] = [f"{x:g}"]
        for ecdf in curves.values():
            row.append(f"{ecdf(x):.3f}")
        bar = "#" * int(round(first(x) * CDF_BAR_WIDTH))
        row.append(bar)
        rows.append(row)
    return render_table(headers, rows)


def render_boxplot_rows(
    groups: Mapping[str, FiveNumberSummary],
    value_label: str,
) -> str:
    """One five-number-summary row per group (a textual boxplot)."""
    headers = ["group", "n", "low", "q1", "median", "q3", "high", "outliers",
               value_label]
    rows = []
    values = [s for s in groups.values()]
    hi = max(s.high_whisker for s in values) or 1.0
    for name, summary in groups.items():
        scale = 30.0 / hi if hi > 0 else 0.0
        lo_pos = int(summary.q1 * scale)
        med_pos = max(lo_pos + 1, int(summary.median * scale))
        hi_pos = max(med_pos + 1, int(summary.q3 * scale))
        sketch = (" " * lo_pos + "[" + "=" * (med_pos - lo_pos) + "|"
                  + "=" * (hi_pos - med_pos) + "]")
        rows.append([
            name, summary.n,
            f"{summary.low_whisker:.2f}", f"{summary.q1:.2f}",
            f"{summary.median:.2f}", f"{summary.q3:.2f}",
            f"{summary.high_whisker:.2f}", summary.n_outliers, sketch,
        ])
    return render_table(headers, rows)


def render_bars(
    groups: Mapping[str, Mapping[str, float]],
    unit: str,
) -> str:
    """Grouped bar chart (Fig. 7 style): {category: {series: value}}."""
    peak = max(v for series in groups.values() for v in series.values())
    if peak <= 0:
        peak = 1.0
    lines: List[str] = []
    name_width = max(len(n) for n in groups)
    for name, series in groups.items():
        for series_name, value in series.items():
            bar = "#" * int(round(value / peak * BAR_WIDTH))
            lines.append(
                f"{name.ljust(name_width)} {series_name:<5} "
                f"{value:8.0f} {unit} {bar}"
            )
    return "\n".join(lines)


def render_scatter_summary(
    points: Sequence[Tuple[float, float]],
    x_label: str,
    y_label: str,
    x_bins: Sequence[Tuple[float, float]],
) -> str:
    """Fig. 6(b)-style summary: per x-bin, the y range and mean."""
    headers = [x_label, "n", f"{y_label} min", f"{y_label} mean", f"{y_label} max"]
    rows = []
    for lo, hi in x_bins:
        ys = [y for x, y in points if lo <= x < hi]
        if not ys:
            rows.append([f"[{lo:g},{hi:g})", 0, "-", "-", "-"])
            continue
        rows.append([
            f"[{lo:g},{hi:g})", len(ys),
            f"{min(ys):.1f}", f"{sum(ys)/len(ys):.1f}", f"{max(ys):.1f}",
        ])
    return render_table(headers, rows)
