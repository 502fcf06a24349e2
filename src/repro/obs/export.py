"""Telemetry exporters: Prometheus text dump, JSONL trace, ASCII summary.

The Prometheus dump follows the text exposition format (``# HELP`` /
``# TYPE`` headers, ``_bucket{le=...}`` / ``_sum`` / ``_count`` series
for histograms) so the output can be diffed, grepped, or actually
scraped.  The end-of-run summary reuses the repo's own
:func:`repro.util.tables.render_table` so telemetry renders like every
other figure (``obs`` may import only ``util``, so the renderer lives
there and :mod:`repro.analysis.charts` re-exports it).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence

from repro.util.tables import render_table
from repro.obs import HealthMonitor, Telemetry
from repro.obs.causes import KIND_JOIN, KIND_STALL
from repro.obs.metrics import Counter, Gauge, Histogram, LabelKey


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format
    (backslash, double quote, and line feed must be escaped)."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _label_str(key: LabelKey, extra: Sequence[str] = ()) -> str:
    parts = [f'{name}="{_escape_label_value(value)}"' for name, value in key]
    parts.extend(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _registry_lines(registry) -> List[str]:
    """One :class:`~repro.obs.metrics.MetricsRegistry` as Prometheus
    text-exposition lines (families plus the dropped-samples series)."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key in sorted(family.children):
            child = family.children[key]
            if isinstance(child, (Counter, Gauge)):
                lines.append(
                    f"{family.name}{_label_str(key)} {_format_value(child.value)}"
                )
            elif isinstance(child, Histogram):
                cumulative = 0
                for bound, count in zip(
                    list(child.buckets) + [math.inf], child.bucket_counts
                ):
                    cumulative += count
                    le = _label_str(key, (f'le="{_format_value(bound)}"',))
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                lines.append(
                    f"{family.name}_sum{_label_str(key)} {_format_value(child.sum)}"
                )
                lines.append(f"{family.name}_count{_label_str(key)} {child.count}")
    # Telemetry self-reporting: truncated data must be visible.
    dropped_rows = [
        ((("metric", family.name),) + key, child.values_dropped)
        for family, key, child in registry.collect()
        if isinstance(child, Histogram) and child.values_dropped
    ]
    if dropped_rows:
        lines.append(
            "# HELP telemetry_histogram_values_dropped_total Raw samples "
            "past the histogram value cap (quantiles approximate)"
        )
        lines.append("# TYPE telemetry_histogram_values_dropped_total counter")
        for key, dropped in dropped_rows:
            lines.append(
                f"telemetry_histogram_values_dropped_total"
                f"{_label_str(key)} {dropped}"
            )
    return lines


def render_metrics(registry) -> str:
    """A bare metrics registry as Prometheus text exposition format.

    The registry-level core of :func:`render_prometheus`, exported for
    callers that hold a registry without a live telemetry context — the
    campaign runner renders its merged per-cell registries and its
    ``progress.prom`` dump through this, so campaign metric files diff
    cleanly against ``--metrics`` output.
    """
    lines = _registry_lines(registry)
    return "\n".join(lines) + ("\n" if lines else "")


def render_prometheus(telemetry: Telemetry) -> str:
    """The whole registry (plus the event-loop profile) as Prometheus
    text exposition format."""
    lines: List[str] = list(_registry_lines(telemetry.metrics))
    if telemetry.tracer.spans or telemetry.tracer.dropped:
        lines.append(
            "# HELP tracer_dropped_spans_total Spans discarded past max_spans"
        )
        lines.append("# TYPE tracer_dropped_spans_total counter")
        lines.append(f"tracer_dropped_spans_total {telemetry.tracer.dropped}")
    # Event-loop profile as synthesized series.
    profiler = telemetry.profiler
    if profiler.sites:
        lines.append("# HELP eventloop_callbacks_total Fired callbacks per site")
        lines.append("# TYPE eventloop_callbacks_total counter")
        for site, count, _ in profiler.table():
            labels = _label_str((("site", site),))
            lines.append(f"eventloop_callbacks_total{labels} {count}")
        lines.append("# HELP eventloop_callback_wall_seconds_total Wall time per site")
        lines.append("# TYPE eventloop_callback_wall_seconds_total counter")
        for site, _, wall_s in profiler.table():
            labels = _label_str((("site", site),))
            lines.append(
                f"eventloop_callback_wall_seconds_total{labels} {wall_s:.6f}"
            )
        lines.append(
            "# HELP eventloop_queue_depth_high_water Deepest pending-event "
            "queue observed across loops"
        )
        lines.append("# TYPE eventloop_queue_depth_high_water gauge")
        lines.append(
            f"eventloop_queue_depth_high_water {profiler.queue_depth_high_water}"
        )
    lines.extend(_cause_series(telemetry))
    lines.extend(_health_series(telemetry))
    return "\n".join(lines) + ("\n" if lines else "")


def _cause_series(telemetry: Telemetry) -> List[str]:
    """Attribution families for the Prometheus dump."""
    collector = telemetry.causes
    if not collector.has_data:
        return []
    lines: List[str] = []

    def family(name: str, help: str, totals: Dict[str, float]) -> None:
        lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} counter")
        for cause in sorted(totals):
            labels = _label_str((("cause", cause),))
            lines.append(f"{name}{labels} {_format_value(totals[cause])}")

    family("stall_seconds_by_cause_total",
           "Stall seconds attributed per cause",
           collector.totals_by_cause(KIND_STALL))
    family("join_seconds_by_cause_total",
           "Join-delay seconds attributed per cause",
           collector.totals_by_cause(KIND_JOIN))
    family("delay_seconds_by_cause_total",
           "Raw delay seconds accrued per cause (all sessions, unclamped)",
           collector.ledger_totals())
    lines.append("# HELP attribution_windows_total Attributed windows by kind")
    lines.append("# TYPE attribution_windows_total counter")
    for kind in (KIND_JOIN, KIND_STALL):
        count = sum(1 for record in collector.records if record.kind == kind)
        labels = _label_str((("kind", kind),))
        lines.append(f"attribution_windows_total{labels} {count}")
    if collector.dropped_records:
        lines.append(
            "# HELP attribution_dropped_records_total Windows discarded "
            "past the record cap"
        )
        lines.append("# TYPE attribution_dropped_records_total counter")
        lines.append(
            f"attribution_dropped_records_total {collector.dropped_records}"
        )
    return lines


def _health_series(telemetry: Telemetry) -> List[str]:
    """Invariant-monitor families for the Prometheus dump."""
    health = telemetry.health
    if not health.checks_total and not health.violations:
        return []
    lines = [
        "# HELP health_checks_total Runtime invariant checks evaluated",
        "# TYPE health_checks_total counter",
        f"health_checks_total {health.checks_total}",
        "# HELP health_violations_total Runtime invariant violations",
        "# TYPE health_violations_total counter",
    ]
    for invariant in sorted(health.violations):
        labels = _label_str((("invariant", invariant),))
        lines.append(
            f"health_violations_total{labels} {health.violations[invariant]}"
        )
    return lines


def render_summary(telemetry: Telemetry) -> str:
    """End-of-run ASCII summary: metrics, quantiles, and the profile."""
    parts: List[str] = []

    scalar_rows = []
    histogram_rows = []
    for family, key, child in telemetry.metrics.collect():
        labels = ",".join(f"{k}={v}" for k, v in key) or "-"
        if isinstance(child, (Counter, Gauge)):
            scalar_rows.append(
                [family.name, family.kind, labels, f"{child.value:g}"]
            )
        elif isinstance(child, Histogram) and child.count:
            histogram_rows.append([
                family.name, labels, child.count,
                f"{child.mean():.4g}",
                f"{child.quantile(0.5):.4g}",
                f"{child.quantile(0.95):.4g}",
                f"{child.quantile(0.99):.4g}",
                f"{child.max:.4g}",
            ])
    overflowed = [
        f"{family.name}{_label_str(key)} ({child.values_dropped} dropped)"
        for family, key, child in telemetry.metrics.collect()
        if isinstance(child, Histogram) and child.values_dropped
    ]
    if scalar_rows:
        parts.append("== metrics: counters & gauges ==")
        parts.append(render_table(["metric", "kind", "labels", "value"], scalar_rows))
    if histogram_rows:
        parts.append("")
        parts.append("== metrics: histograms ==")
        parts.append(render_table(
            ["metric", "labels", "n", "mean", "p50", "p95", "p99", "max"],
            histogram_rows,
        ))
        if overflowed:
            parts.append(
                "raw-value cap exceeded (quantiles approximate): "
                + ", ".join(overflowed)
            )

    profiler = telemetry.profiler
    if profiler.sites:
        parts.append("")
        parts.append("== event-loop profile ==")
        total_wall = sum(wall for _, _, wall in profiler.table()) or 1.0
        profile_rows = [
            [site, count, f"{wall * 1e3:.2f}", f"{100.0 * wall / total_wall:.1f}%"]
            for site, count, wall in profiler.table()
        ]
        parts.append(render_table(
            ["callback site", "events", "wall ms", "share"], profile_rows
        ))
        parts.append(
            f"events profiled: {profiler.events_profiled}; "
            f"queue-depth high water: {profiler.queue_depth_high_water}"
        )

    tracer = telemetry.tracer
    if tracer.spans:
        parts.append("")
        parts.append("== trace ==")
        by_name: dict = {}
        for span in tracer.spans:
            agg = by_name.setdefault(span.name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += span.sim_duration or 0.0
            agg[2] += span.wall_duration or 0.0
        trace_rows = [
            [name, n, f"{sim_s:.3f}", f"{wall_s * 1e3:.2f}"]
            for name, (n, sim_s, wall_s) in sorted(by_name.items())
        ]
        parts.append(render_table(
            ["span", "n", "sim s (total)", "wall ms (total)"], trace_rows
        ))
    if tracer.dropped:
        parts.append(
            f"spans dropped past max_spans: {tracer.dropped} "
            f"(trace is truncated)"
        )

    if telemetry.causes.has_data:
        parts.append("")
        parts.append(render_attribution(telemetry))
    if telemetry.health.checks_total or telemetry.health.violations:
        parts.append("")
        parts.append(render_health(telemetry))

    return "\n".join(parts) if parts else "(no telemetry recorded)"


# --------------------------------------------------------- stall forensics

#: Per-window rows shown in the ASCII report before deferring to JSONL.
MAX_WINDOW_ROWS = 40


def _share(amount: float, total: float) -> str:
    return f"{100.0 * amount / total:.1f}%" if total > 0.0 else "-"


def render_attribution(telemetry: Telemetry) -> str:
    """The study-level cause-attribution report (ASCII).

    Byte-identical across repeats and worker counts for the same seeded
    study: the collector's records arrive in serial session order and
    every sum here iterates a deterministic order.
    """
    collector = telemetry.causes
    if not collector.has_data:
        return "(no attribution recorded — enable causes/--explain)"
    parts: List[str] = ["== stall forensics: cause attribution =="]

    stall_records = [r for r in collector.records if r.kind == KIND_STALL]
    join_records = [r for r in collector.records if r.kind == KIND_JOIN]
    stall_totals = collector.totals_by_cause(KIND_STALL)
    join_totals = collector.totals_by_cause(KIND_JOIN)
    ledger = collector.ledger_totals()

    total_stall_s = 0.0
    for record in stall_records:
        total_stall_s += record.duration
    total_join_s = 0.0
    for record in join_records:
        total_join_s += record.duration

    causes = sorted(
        set(stall_totals) | set(join_totals) | set(ledger),
        key=lambda c: (-stall_totals.get(c, 0.0), -join_totals.get(c, 0.0), c),
    )
    cause_rows = []
    for cause in causes:
        stall_s = stall_totals.get(cause, 0.0)
        join_s = join_totals.get(cause, 0.0)
        cause_rows.append([
            cause,
            f"{stall_s:.3f}", _share(stall_s, total_stall_s),
            f"{join_s:.3f}", _share(join_s, total_join_s),
            f"{ledger.get(cause, 0.0):.3f}",
        ])
    parts.append(render_table(
        ["cause", "stall s", "stall %", "join s", "join %", "raw delay s"],
        cause_rows,
    ))

    attributed_stall_s = 0.0
    for cause in sorted(stall_totals):
        attributed_stall_s += stall_totals[cause]
    attributed_join_s = 0.0
    for cause in sorted(join_totals):
        attributed_join_s += join_totals[cause]
    parts.append("")
    parts.append(
        f"stall windows: {len(stall_records)}; "
        f"stall time {total_stall_s:.3f} s; "
        f"attributed {attributed_stall_s:.3f} s "
        f"({_share(attributed_stall_s, total_stall_s)})"
    )
    parts.append(
        f"join windows: {len(join_records)}; "
        f"join time {total_join_s:.3f} s; "
        f"attributed {attributed_join_s:.3f} s "
        f"({_share(attributed_join_s, total_join_s)})"
    )
    if stall_totals:
        dominant = max(sorted(stall_totals),
                       key=lambda c: (stall_totals[c], c))
        parts.append(
            f"dominant stall cause: {dominant} "
            f"({_share(stall_totals[dominant], total_stall_s)} of stall time)"
        )
    if collector.dropped_records:
        parts.append(
            f"windows dropped past the record cap: {collector.dropped_records}"
        )

    if collector.records:
        shown = collector.records[:MAX_WINDOW_ROWS]
        parts.append("")
        parts.append("== attributed windows (session order) ==")
        window_rows = []
        for record in shown:
            top = record.dominant()
            window_rows.append([
                record.context, record.kind,
                f"{record.start:.3f}", f"{record.duration:.3f}",
                top or "-",
                f"{record.causes[top]:.3f}" if top else "-",
                _share(record.attributed_s, record.duration),
            ])
        parts.append(render_table(
            ["session", "kind", "start s", "dur s",
             "top cause", "top s", "attributed"],
            window_rows,
        ))
        if len(collector.records) > len(shown):
            parts.append(
                f"(+{len(collector.records) - len(shown)} more windows — "
                f"full list in the JSONL export)"
            )
    return "\n".join(parts)


def health_verdict(health: HealthMonitor) -> str:
    """The one-line verdict: checks evaluated and violations found."""
    return (f"checks evaluated: {health.checks_total}; "
            f"violations: {health.violation_count}")


def render_health(telemetry: Telemetry) -> str:
    """The invariant-monitor report (ASCII)."""
    health = telemetry.health
    parts = ["== study health: invariant monitors =="]
    parts.append(health_verdict(health))
    if health.violations:
        rows = [[invariant, health.violations[invariant]]
                for invariant in sorted(health.violations)]
        parts.append(render_table(["invariant", "violations"], rows))
        if health.samples:
            parts.append("first violation samples:")
            for sample in health.samples:
                parts.append(f"  - {sample}")
    else:
        parts.append("all invariants held.")
    return "\n".join(parts)


def attribution_jsonl(telemetry: Telemetry) -> str:
    """Every attributed window as JSON Lines (one record per line)."""
    return "\n".join(
        json.dumps(record.to_dict(), separators=(",", ":"), sort_keys=True)
        for record in telemetry.causes.records
    )
