"""Self-test of the benchmark harness, on short runs.

    python -m pytest perfbench/selftest.py

It checks that every metric ``BENCHMARK.json`` lists is printed with its
unit, that metric names are well formed, that a corrupted session record
fails the output check, that the compare rule labels synthetic samples
correctly, and that the traced layer attribution agrees with a cProfile
by-package breakdown of the same units.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=str(ROOT),
        timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "2016",
                     "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: e["unit"] for n, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(e["value"] > 0 for e in result["metrics"].values())


def test_corrupted_session_fails_the_output_check(monkeypatch, capsys):
    import workloads

    original = workloads.TeleportSweep.run_unit

    def corrupted(self, index):
        datasets = original(self, index)
        datasets[0].sessions[0].total_stall_s += 1.0
        return datasets

    monkeypatch.setattr(workloads.TeleportSweep, "run_unit", corrupted)
    code = bench.main(["--workload", "teleport_sweep", "--seed", "2016",
                       "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert last_json(capsys.readouterr().out)["correct"] is False


def test_golden_digest_mismatch_fails(monkeypatch, capsys):
    import workloads

    original = workloads.TeleportSweep.run_unit

    def shifted(self, index):
        datasets = original(self, index)
        datasets[0].down_bytes[0] += 1
        return datasets

    monkeypatch.setattr(workloads.TeleportSweep, "run_unit", shifted)
    assert bench.main(["--workload", "teleport_sweep", "--seed", "2016",
                       "--seconds", "1", "--trace", "0"]) != 0


def test_missing_program_exits_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(tmp_path), timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_labels_synthetic_samples():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    faster = [v * 1.2 for v in parent]
    jitter = [101.0, 99.2, 100.4, 99.6, 100.9, 99.1, 100.0, 100.6, 99.7, 100.2]
    slower = [v * 0.8 for v in parent]
    assert compare.classify(parent, faster, "higher", 0.1)[0] == "win"
    assert compare.classify(parent, jitter, "higher", 0.1)[0] == "noise"
    assert compare.classify(parent, slower, "higher", 0.1)[0] == "loss"
    assert compare.classify(parent[:5], faster[:5], "higher", 0.1)[0] == "unresolved"
    assert compare.classify(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "win"


# ----------------------------------------------------- cProfile cross-check


def _package(filename: str) -> str:
    marker = "/src/repro/"
    if marker in filename:
        rest = filename.split(marker, 1)[1]
        return rest.split("/", 1)[0] if "/" in rest else "repro"
    return "bench" if "/perfbench/" in filename else ""


def profile_shares(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per package from cProfile.  Time in code outside the
    program (builtins, the standard library, generated dataclass
    methods) goes to the package that called it, split by call edge."""
    table = stats.stats
    memo: Dict[tuple, Counter] = {}

    def owners(func, seen=()) -> Counter:
        if func in memo:
            return memo[func]
        package = _package(func[0])
        if package:
            return Counter({package: 1.0})
        share = Counter()
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        total = sum(edge[2] for edge in callers.values())
        for caller, edge in callers.items():
            if caller in seen or not total:
                continue
            for owner, weight in owners(caller, seen + (func,)).items():
                share[owner] += weight * edge[2] / total
        memo[func] = share
        return share

    seconds = Counter()
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for owner, weight in owners(func).items():
            seconds[owner] += tt * weight
    total = sum(seconds.values())
    return {package: 100.0 * value / total for package, value in seconds.items()}


def test_traced_attribution_agrees_with_cprofile():
    """Collections are switched off for both measurements: the tracer
    charges them to a ``gc`` layer, cProfile to whichever call
    allocated, and this check is about the layers of the program."""
    from tracing import Totals, Tracer

    units = range(1, 4)
    gc.disable()
    try:
        workload = bench.make_workload("teleport_sweep", 2016, workers=1)
        workload.run_unit(0)
        profiler = cProfile.Profile()
        profiler.enable()
        for index in units:
            workload.run_unit(index)
        profiler.disable()
        profiled = profile_shares(pstats.Stats(profiler))

        tracer = Tracer()
        totals = Totals()
        tracer.install()
        try:
            tracer.calibrate()
            workload = bench.make_workload("teleport_sweep", 2016, workers=1)
            workload.run_unit(0)
            for index in units:
                with tracer.unit(f"check:{index}", totals):
                    workload.run_unit(index)
        finally:
            tracer.uninstall()
    finally:
        gc.enable()
    self_ns = tracer.layer_self_ns(totals)
    attributed = sum(self_ns.values())
    traced = {layer: 100.0 * ns / attributed for layer, ns in self_ns.items()}
    top = sorted(traced, key=traced.get, reverse=True)[:3]
    for layer in top:
        assert abs(traced[layer] - profiled.get(layer, 0.0)) < 10.0, (
            layer, traced, profiled)
