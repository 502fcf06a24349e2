"""Classify a change against its parent from two sets of run records.

For each (end-to-end metric, workload) the rule is the one for claiming
a gain on a small, shared host:

* ``win`` — at least 10 pairs (parent run i, change run i), the change
  better in at least 9/10 of them (ties count for neither), and the
  medians apart by more than the parent's interquartile range;
* ``loss`` — the change's median is worse than the parent's by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — fewer than 10 pairs, or the parent's own spread is
  wider than the bound and not every change run beats every parent run;
* ``noise`` — otherwise: no gain shown and no regression beyond the bound.

Run records are the JSON lines ``bench.py`` writes; each argument is a
record file, a JSON-lines file of records, or a directory of them.
Pairs follow the records' start times.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path: str) -> List[dict]:
    target = Path(path)
    files = sorted(target.glob("*.json*")) if target.is_dir() else [target]
    records = []
    for file in files:
        for line in file.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def classify(parent: List[float], change: List[float], better: str,
             bound: float) -> Tuple[str, dict]:
    """Label one (metric, workload) from paired samples."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    quartiles = statistics.quantiles(parent, n=4) if len(parent) >= 2 else [med_p] * 3
    iqr = quartiles[2] - quartiles[0]
    worse = -sign * (med_c - med_p) / abs(med_p) if med_p else 0.0
    detail = {"pairs": len(pairs), "wins": wins, "parent_median": med_p,
              "change_median": med_c, "parent_iqr": iqr, "worse_share": worse}
    if worse > bound:
        return "loss", detail
    if len(pairs) < MIN_PAIRS:
        return "unresolved", detail
    if wins >= math.ceil(WIN_SHARE * len(pairs)) and sign * (med_c - med_p) > iqr:
        return "win", detail
    if med_p and iqr / abs(med_p) > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        if not all_better:
            return "unresolved", detail
    return "noise", detail


def _series(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    series: Dict[Tuple[str, str], List[float]] = {}
    for record in sorted(records, key=lambda r: r.get("started_utc", "")):
        if record.get("trace"):
            continue
        for metric, entry in record["metrics"].items():
            series.setdefault((metric, record["workload"]), []).append(entry["value"])
    return series


def compare(spec: dict, parent: List[dict], change: List[dict]) -> List[dict]:
    parent_series, change_series = _series(parent), _series(change)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (metric["name"], workload)
            if key not in parent_series or key not in change_series:
                continue
            label, detail = classify(parent_series[key], change_series[key],
                                     metric["better"], metric["bound"])
            rows.append(dict(detail, workload=workload, metric=metric["name"],
                             unit=metric["unit"], bound=metric["bound"],
                             label=label))
    return rows


def main(spec: dict, parent_path: str, change_path: str) -> int:
    rows = compare(spec, load_records(parent_path), load_records(change_path))
    header = (f"{'workload':20s} {'metric':14s} {'parent':>12s} {'change':>12s} "
              f"{'worse':>8s} {'wins':>7s}  label")
    print(header, file=sys.stderr)
    for row in rows:
        print(f"{row['workload']:20s} {row['metric']:14s} "
              f"{row['parent_median']:12.5g} {row['change_median']:12.5g} "
              f"{100 * row['worse_share']:7.2f}% {row['wins']:3d}/{row['pairs']:<3d} "
              f" {row['label']}", file=sys.stderr)
    losses = [row for row in rows if row["label"] == "loss"]
    print(json.dumps({"rows": rows, "losses": len(losses)}))
    return 1 if losses or not rows else 0
