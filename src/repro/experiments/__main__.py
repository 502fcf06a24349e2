"""Command-line figure regeneration.

Run any paper table/figure from the shell::

    python -m repro.experiments list
    python -m repro.experiments fig3 --seed 7 --sessions 40
    python -m repro.experiments all

Workbench-backed figures share one dataset per invocation; sizes are
laptop-scale by default and adjustable with the flags below.

Telemetry (see :mod:`repro.obs`) is opt-in::

    python -m repro.experiments fig3 --metrics -          # dump to stdout
    python -m repro.experiments fig3 --metrics run.prom \\
        --trace-out run-trace.jsonl

``--metrics`` enables the metrics registry and the event-loop profiler
and writes a Prometheus-style text dump plus an ASCII summary at exit;
``--trace-out`` enables sim-time tracing spans and writes them as JSONL.

Stall forensics (see :mod:`repro.obs.causes`) rides the same pattern::

    python -m repro.experiments fig3loss --faults loss=ge:0.02:0.3:0.5 \\
        --explain - --health -

``--explain`` enables causal delay attribution and writes the ASCII
attribution report (``--explain-jsonl`` writes the per-window records as
JSONL); ``--health`` enables the online invariant monitors and writes
their report.  Figures are also accepted under their module names
(``fig3_stalls``, ``sec5_ttests``, ...).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from repro import obs
from repro.experiments import (
    fig1_crawl,
    fig2_usage,
    fig2pop,
    fig3_loss,
    fig3_stalls,
    fig4_latency,
    fig5_delivery,
    fig6_quality,
    fig7_power,
    sec5_protocol,
    sec5_ttests,
    sec51_chat,
    sec52_codecs,
    table1_api,
)
from repro.experiments.common import Workbench
from repro.obs.export import (
    attribution_jsonl,
    render_attribution,
    render_health,
    render_prometheus,
    render_summary,
)

#: name -> (needs_workbench, runner).  Runners receive the shared
#: workbench plus the parsed CLI namespace, so population-scale drivers
#: can read their own flags (``--viewers``) without widening every
#: signature.
DRIVERS: Dict[str, tuple] = {
    "table1": (False, lambda wb, args: table1_api.run(seed=args.seed)),
    "fig1": (True, lambda wb, args: fig1_crawl.run(wb)),
    "fig2": (True, lambda wb, args: fig2_usage.run(wb)),
    "fig2pop": (True, lambda wb, args: fig2pop.run(wb, viewers=args.viewers)),
    "fig3": (True, lambda wb, args: fig3_stalls.run(wb)),
    "fig3loss": (True, lambda wb, args: fig3_loss.run(wb)),
    "fig4": (True, lambda wb, args: fig4_latency.run(wb)),
    "fig5": (True, lambda wb, args: fig5_delivery.run(wb)),
    "fig6": (True, lambda wb, args: fig6_quality.run(wb)),
    "fig7": (False, lambda wb, args: fig7_power.run(seed=args.seed)),
    "ttests": (True, lambda wb, args: sec5_ttests.run(wb)),
    "protocol": (True, lambda wb, args: sec5_protocol.run(wb)),
    "chat": (False, lambda wb, args: sec51_chat.run(seed=args.seed)),
    "codecs": (False, lambda wb, args: sec52_codecs.run(seed=args.seed)),
}

#: Module-style aliases, so ``fig3_stalls`` works where ``fig3`` does.
ALIASES: Dict[str, str] = {
    "table1_api": "table1",
    "fig1_crawl": "fig1",
    "fig2_usage": "fig2",
    "fig2_pop": "fig2pop",
    "fig3_stalls": "fig3",
    "fig3_loss": "fig3loss",
    "fig4_latency": "fig4",
    "fig5_delivery": "fig5",
    "fig6_quality": "fig6",
    "fig7_power": "fig7",
    "sec5_ttests": "ttests",
    "sec5_protocol": "protocol",
    "sec51_chat": "chat",
    "sec52_codecs": "codecs",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(DRIVERS) + sorted(ALIASES) + ["all", "list"],
        metavar="figure",
        help="which experiment to run (module-style names are aliases; "
             "'list' prints the canonical names)",
    )
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--sessions", type=int, default=90,
                        help="unlimited-bandwidth session count")
    parser.add_argument("--per-limit", type=int, default=6,
                        help="sessions per bandwidth limit in the sweep")
    parser.add_argument(
        "--viewers", type=int, default=100_000,
        help="concurrent viewers in the population-scale world "
             "(fig2pop only; cohort dynamics keep millions tractable)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for study session execution (datasets are "
             "bit-identical to --workers 1; session-level spans from "
             "--trace-out are only collected serially)",
    )
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="fault plan for study sessions, e.g. "
             "'loss=0.02,jitter=0.01,flap=0.02:0.5:2,ingest=0.01:1:3,"
             "api5xx=0.05' or 'loss=ge:0.02:0.3:0.5' (Gilbert-Elliott); "
             "'none' disables faults (the default)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="enable metrics + event-loop profiling; write a "
             "Prometheus-style dump to PATH ('-' for stdout) at exit",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="enable sim-time tracing; write spans as JSONL to PATH "
             "('-' for stdout) at exit",
    )
    parser.add_argument(
        "--explain", metavar="PATH", nargs="?", const="-", default=None,
        help="enable stall forensics (causal delay attribution); write "
             "the ASCII attribution report to PATH (default '-', stdout) "
             "at exit",
    )
    parser.add_argument(
        "--explain-jsonl", metavar="PATH", default=None,
        help="also write per-window attribution records as JSONL to PATH "
             "('-' for stdout); implies --explain's instrumentation",
    )
    parser.add_argument(
        "--health", metavar="PATH", nargs="?", const="-", default=None,
        help="enable online invariant monitors; write the study-health "
             "report to PATH (default '-', stdout) at exit",
    )
    return parser


def _write_output(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
        if not content.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as sink:
            sink.write(content)
            if not content.endswith("\n"):
                sink.write("\n")


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.figure == "list":
        for name in sorted(DRIVERS):
            print(name)
        return 0
    causes_on = args.explain is not None or args.explain_jsonl is not None
    health_on = args.health is not None
    if args.workers > 1 and (args.trace_out is not None or args.metrics is not None):
        print(f"note: --workers {args.workers}: sessions run in pool workers "
              f"record no spans or profiler sites; the trace and the profile "
              f"cover only batches run inline", file=sys.stderr)
    telemetry: Optional[obs.Telemetry] = None
    if (args.metrics is not None or args.trace_out is not None
            or causes_on or health_on):
        telemetry = obs.activate(obs.Telemetry(
            metrics=args.metrics is not None,
            tracing=args.trace_out is not None,
            profiling=args.metrics is not None,
            causes=causes_on,
            health=health_on,
        ))
    try:
        from repro.faults.plan import FaultPlan

        faults = FaultPlan.parse(args.faults) if args.faults else None
        if faults is not None and faults.empty:
            faults = None
        workbench = Workbench(
            seed=args.seed,
            unlimited_sessions=args.sessions,
            sweep_sessions_per_limit=args.per_limit,
            metrics=args.metrics is not None,
            tracing=args.trace_out is not None,
            causes=causes_on,
            health=health_on,
            workers=args.workers,
            faults=faults,
        )
        figure = ALIASES.get(args.figure, args.figure)
        names = sorted(DRIVERS) if figure == "all" else [figure]
        for name in names:
            _, runner = DRIVERS[name]
            print(f"=== {name} ===")
            print(runner(workbench, args).render())
            print()
        if telemetry is not None:
            if args.trace_out is not None:
                if args.trace_out == "-":
                    telemetry.tracer.write_jsonl(sys.stdout)
                else:
                    with open(args.trace_out, "w", encoding="utf-8") as sink:
                        telemetry.tracer.write_jsonl(sink)
                    print(f"trace: {len(telemetry.tracer.spans)} spans -> "
                          f"{args.trace_out}")
            if args.metrics is not None:
                _write_output(args.metrics, render_prometheus(telemetry))
                print()
                print(render_summary(telemetry))
            if args.explain is not None:
                _write_output(args.explain, render_attribution(telemetry))
                if args.explain != "-":
                    print(f"attribution report -> {args.explain}")
            if args.explain_jsonl is not None:
                _write_output(args.explain_jsonl, attribution_jsonl(telemetry))
                if args.explain_jsonl != "-":
                    records = len(telemetry.causes.records)
                    print(f"attribution: {records} windows -> "
                          f"{args.explain_jsonl}")
            if args.health is not None:
                _write_output(args.health, render_health(telemetry))
                if args.health != "-":
                    print(f"health report -> {args.health}")
    finally:
        if telemetry is not None:
            obs.deactivate()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI test
    sys.exit(main())
