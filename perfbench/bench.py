"""The repository's benchmark: four closed-loop workloads, end-to-end
metrics with fixed regression bounds, an output check, and a traced
per-layer breakdown.

Run one workload::

    python3 perfbench/bench.py --workload teleport_sweep --seed 2016 \\
        --seconds 20 --trace 0

Run all four, each in its own subprocess, and print every metric::

    python3 perfbench/bench.py --seed 2016

Classify a change against its parent from two sets of run records::

    python3 perfbench/bench.py --compare PARENT CHANGE

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
tables go to standard error.  Each invocation writes one run record
under ``perfbench/results/``.  The workloads, metrics and layer map are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
#: Seed of the known-answer check every run makes (see ``golden.json``).
KNOWN_ANSWER_SEED = 2016
RESULTS = HERE / "results"

#: Fresh processes timed from start to a constructed workload; the median
#: of their times at the reference speed is ``setup_s``.
SETUP_PROBES = 7
#: Seconds :func:`speed_probe` takes on the reference host in a quiet
#: phase.  Timed units and set-ups are rescaled to that speed (see README).
PROBE_REF_S = 1.2e-3
#: Seconds of one probe or one all-workload child before it is killed.
CHILD_TIMEOUT_S = 170


def log(message: str = "") -> None:
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------- spec


def load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: dict, trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics one run prints."""
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# ------------------------------------------------------------- provenance


def revision() -> dict:
    """The git commit when the checkout has one, and always a digest of
    the program's source tree (the checkout need not be a repository)."""
    commit = "unknown"
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                commit = ref_file.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": tree.hexdigest()}


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest waited-for child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# --------------------------------------------------------------- measuring


def speed_probe(repeats: int = 3, events: int = 3000) -> float:
    """Seconds of a fixed discrete-event micro-workload (a heap, a dict,
    float arithmetic), best of ``repeats``: how fast this host runs
    Python right now.  Collection is off while it runs, so the size of
    this process's heap does not leak into the reading."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            queue = [(i * 0.001, i, i % 7) for i in range(64)]
            heapq.heapify(queue)
            state: Dict[int, float] = {}
            for _ in range(events):
                when, seq, key = heapq.heappop(queue)
                state[key] = state.get(key, 0.0) * 0.5 + when
                heapq.heappush(queue, (when + 0.003 + (seq % 5) * 1e-4, seq + 64,
                                       (key * 31 + seq) % 97))
            best = min(best, time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return best


class PairedProbe:
    """The speed probe run at once in this process and in a helper
    process, averaged: the host speed across both cores, for workloads
    whose units keep two worker processes busy."""

    def __init__(self) -> None:
        self.helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-server"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))

    def __call__(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        local = speed_probe()
        return (local + float(self.helper.stdout.readline())) / 2.0

    def close(self) -> None:
        self.helper.stdin.close()
        try:
            self.helper.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()


def serve_probes() -> int:
    """The helper side of :class:`PairedProbe`: one probe per input line."""
    for _line in sys.stdin:
        print(speed_probe(), flush=True)
    return 0


def at_reference(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe took ``probe`` seconds, at
    the reference host's speed."""
    return seconds * PROBE_REF_S / probe


class Run:
    """Outcome of one measured pass over a workload."""

    def __init__(self, probe=speed_probe) -> None:
        self.probe = probe
        self.steps: List[float] = []
        #: CPU seconds of each timed step, this process and its children.
        self.cpu: List[float] = []
        #: Speed probe around each timed step (mean of before and after).
        self.probes: List[float] = []
        self.last_probe: Optional[float] = None
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.unit_digests: List[str] = []
        self.counts: Dict[str, List[float]] = {}

    def reference_steps(self) -> List[float]:
        return [at_reference(s, p) for s, p in zip(self.steps, self.probes)]

    def fail(self, index: int, message: str) -> None:
        self.failed += 1
        self.problems.append(f"unit {index}: {message}")
        log(f"FAILED unit {index}: {message}")

    def inspect(self, workload, index: int, outputs):
        result = workload.inspect(outputs)
        self.unit_digests.append(result.digest)
        for name, value in result.counts.items():
            self.counts.setdefault(name, []).append(value)
        if result.problems:
            self.fail(index, "; ".join(result.problems))
        return result


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_units(workload, run: Run, indices, timed: bool, scope=None) -> None:
    """Run the given units in order, timing ``run_unit`` only.
    ``scope(index)`` optionally gives a context entered around each
    timed call."""
    if timed and run.last_probe is None:
        run.last_probe = run.probe()
    for index in indices:
        run.attempted += 1
        cpu = _cpu_seconds()
        started = time.perf_counter()
        try:
            with scope(index) if scope else contextlib.nullcontext():
                outputs = workload.run_unit(index)
        except Exception:
            run.fail(index, traceback.format_exc(limit=8))
            continue
        elapsed = time.perf_counter() - started
        cpu = _cpu_seconds() - cpu
        result = run.inspect(workload, index, outputs)
        if timed:
            after = run.probe()
            run.steps.append(elapsed)
            run.cpu.append(cpu)
            run.probes.append((run.last_probe + after) / 2.0)
            run.last_probe = after
            run.items += result.items


def run_for(workload, run: Run, seconds: float) -> int:
    """Closed loop from unit 0 until ``seconds`` of timed work and at
    least the workload's checked units; returns the next unit index."""
    index = 0
    while sum(run.steps) < seconds or index < workload.check_units:
        failed = run.failed
        run_units(workload, run, [index], timed=True)
        index += 1
        if run.failed > failed:
            break  # the run is incorrect either way; do not spin on failures
    return index


def prefix_digest(digests: List[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def make_workload(name: str, seed: int, workers: Optional[int] = None):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    kwargs = {}
    if workers is not None:
        kwargs["workers"] = workers
    if name == "forensics_campaign":
        kwargs["workdir"] = str(work_dir())
    return cls(seed, **kwargs)


def work_dir() -> Path:
    path = RESULTS / "work"
    path.mkdir(parents=True, exist_ok=True)
    return path


def check_golden(name: str, seed: int, run: Run, digests: List[str]) -> Optional[str]:
    """The digest of a workload's checked units; a run fails when the
    golden file pins another value for this seed."""
    if run.failed:
        return None
    value = prefix_digest(digests)
    golden = load_json(GOLDEN_PATH).get(str(seed), {}).get(name)
    if golden is not None and golden != value:
        run.fail(-1, f"output digest {value[:16]} != golden {golden[:16]} "
                     f"for seed {seed}")
    return value


def known_answer(name: str, run: Run, workers: Optional[int] = None) -> None:
    """Run the checked units of the pinned seed and compare them with the
    golden digest: every run, whatever its own seed, first proves that
    the program still computes the known answer.  This also warms the
    process up (imports, lazy caches) before anything is timed."""
    workload = make_workload(name, KNOWN_ANSWER_SEED, workers)
    check = Run()
    run_units(workload, check, range(workload.check_units), timed=False)
    run.attempted += check.attempted
    for problem in check.problems:
        run.fail(-1, f"known answer: {problem}")
    check_golden(name, KNOWN_ANSWER_SEED, run, check.unit_digests)


def probe_setup(name: str, seed: int) -> Tuple[float, float]:
    """Seconds from starting a fresh process to its constructed workload,
    and the speed probe around it (mean of before and after)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--probe", name, "--seed", str(seed)]
    before = speed_probe()
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=str(ROOT),
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or out.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed "
                           f"(exit {proc.returncode})")
    return elapsed, (before + speed_probe()) / 2.0


def measure(name: str, seed: int, seconds: float) -> dict:
    """One untraced run: the end-to-end metrics and the output check."""
    workload = make_workload(name, seed)
    probe = PairedProbe() if workload.workers > 1 else speed_probe
    try:
        run = Run(probe)
        known_answer(name, run)
        run_for(workload, run, seconds)
    finally:
        if probe is not speed_probe:
            probe.close()
    rss = peak_rss_mb()
    prefix = check_golden(name, seed, run, run.unit_digests[:workload.check_units])
    try:
        setups = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        run.fail(-1, str(error))
        setups = []
    metrics, raw = {}, {}
    if run.steps and setups:
        metrics = {
            "work_per_s": run.items / sum(run.reference_steps()),
            "setup_s": statistics.median(at_reference(s, p) for s, p in setups),
            "peak_rss_mb": rss,
        }
        raw = {
            "work_per_s": run.items / sum(run.steps),
            "step_p50_ms": statistics.median(run.steps) * 1000.0,
            "setup_s": statistics.median(s for s, _ in setups),
        }
    return {
        "run": run, "metrics": metrics, "prefix_digest": prefix,
        "sizes": workload.sizes(), "item": workload.item,
        "extra": {"setup_samples_s": [s for s, _ in setups],
                  "setup_probes_s": [p for _, p in setups],
                  "raw_host_time": raw},
    }


# ------------------------------------------------------------------ traced

#: Layers whose share of the traced wall is a per-layer metric.
SHARE_LAYERS = ("netsim", "media", "protocols", "player", "service", "world",
                "core", "crawler", "campaign", "faults", "obs", "util", "gc")
#: Counters read from the tracer's boundary counts.
TRACED_COUNTS = ("netsim.events", "media.frames", "protocols.mux_bytes",
                 "protocols.http_requests", "service.broadcasts_built",
                 "service.api_requests", "world.cohorts")
CAMPAIGN_STORE_SPANS = ("CampaignStore.put_blob", "CampaignStore.append_record",
                        "CampaignStore.write_artifact")


def _span_seconds(spans, suffixes) -> float:
    """Seconds inside spans of the timed units whose names end with one
    of ``suffixes``, outermost spans only."""
    names = {span[0]: span[2] for span in spans}
    parents = {span[0]: span[1] for span in spans}
    total = 0
    for span_id, parent, name, _layer, start, end, request in spans:
        if not request or not name.endswith(suffixes):
            continue
        if not any(names.get(p, "").endswith(suffixes) for p in _ancestors(parents, parent)):
            total += end - start
    return total / 1e9


def _ancestors(parents, span_id):
    while span_id:
        yield span_id
        span_id = parents.get(span_id, 0)


def _sampling_seconds(spans) -> float:
    """Study-batch time outside its sessions: the serial sampling phase."""
    batches = {s[0]: s[5] - s[4] for s in spans
               if s[6] and s[2].endswith("AutomatedViewingStudy.run_batch")}
    sessions = sum(s[5] - s[4] for s in spans
                   if s[1] in batches and s[2].endswith("ViewingSession.run"))
    return (sum(batches.values()) - sessions) / 1e9


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """One traced run: an untraced reference over half the time, then the
    same units again under the tracer, in one process (``workers=1``)."""
    from tracing import Totals, Tracer

    reference = Run()
    known_answer(name, reference, workers=1)
    workload = make_workload(name, seed, workers=1)
    checked = workload.check_units
    end = run_for(workload, reference, seconds / 2.0)
    prefix = check_golden(name, seed, reference, reference.unit_digests[:checked])

    tracer = Tracer()
    totals = Totals()
    traced = Run()
    tracer.install()
    try:
        wrapper_ns = tracer.calibrate()
        workload = make_workload(name, seed, workers=1)
        run_units(workload, traced, range(end), timed=True,
                  scope=lambda index: tracer.unit(f"{name}:{index}", totals))
    finally:
        tracer.uninstall()
    run = reference
    run.attempted += traced.attempted
    for problem in traced.problems:
        run.fail(-1, f"traced: {problem}")
    if not traced.failed and traced.unit_digests != reference.unit_digests:
        run.fail(-1, "the traced run produced different outputs")

    wall_s = sum(traced.steps)
    self_s = {layer: ns / 1e9 for layer, ns in tracer.layer_self_ns(totals).items()}
    attributed = sum(v for layer, v in self_s.items() if layer != "bench")
    metrics = {f"{layer}.share_pct": 100.0 * self_s.get(layer, 0.0) / wall_s
               for layer in SHARE_LAYERS}
    metrics.update({counter: float(totals.counts[counter])
                    for counter in TRACED_COUNTS})
    metrics["obs.calls"] = float(tracer.calls_into("obs"))
    metrics["core.sampling_pct"] = 100.0 * _sampling_seconds(tracer.spans) / wall_s
    metrics["campaign.hash_pct"] = 100.0 * _span_seconds(
        tracer.spans, ("hashing.content_hash",)) / wall_s
    metrics["campaign.store_write_pct"] = 100.0 * _span_seconds(
        tracer.spans, CAMPAIGN_STORE_SPANS) / wall_s
    metrics["campaign.store_bytes"] = float(sum(
        traced.counts.get("campaign.store_bytes", [])))
    reruns = reference.counts.get("campaign.memo_rerun_s", [])
    metrics["campaign.rerun_pct"] = (
        100.0 * statistics.median(reruns) / statistics.median(reference.steps)
        if reruns else 0.0)
    metrics["trace.wrapper_ns"] = wrapper_ns
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(traced.reference_steps()) / sum(reference.reference_steps()) - 1.0)
    # Of the traced wall net of the tracer's calibrated bookkeeping, the
    # share charged to a layer of the program rather than to the bench.
    metrics["trace.coverage_pct"] = 100.0 * attributed / (
        wall_s - tracer.tracer_ns(totals) / 1e9)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    trace_path = RESULTS / f"trace-{stamp}-{name}-s{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    log(f"{name}: traced {len(traced.steps)} units, {wall_s:.2f} s traced wall "
        f"vs {sum(reference.steps):.2f} s untraced")
    log(f"  {'layer':10s} {'self_s':>9s} {'share%':>7s} {'crossings':>10s}")
    for layer, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:10s} {value:9.3f} {100 * value / wall_s:7.2f} "
            f"{totals.into[layer]:10d}")
    return {
        "run": run, "metrics": metrics, "prefix_digest": prefix,
        "sizes": dict(workload.sizes(), workers=1), "item": workload.item,
        "extra": {"layer_self_s": self_s, "traced_wall_s": wall_s,
                  "untraced_wall_s": sum(reference.steps),
                  "trace_file": str(trace_path.relative_to(ROOT)),
                  "crossing_ns": {"callee": tracer.inner_ns,
                                  "caller": tracer.outer_ns,
                                  "untimed": tracer.untimed_ns}},
    }


# -------------------------------------------------------------------- main


def check_environment() -> Optional[str]:
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source at {SRC / 'repro'}"
    if not SPEC_PATH.is_file():
        return f"missing {SPEC_PATH.name}"
    return None


def write_record(record: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    suffix = "-trace" if record["trace"] else ""
    path = RESULTS / f"{stamp}-{record['workload']}-s{record['seed']}{suffix}.json"
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    return path


def print_metrics(workload: str, metrics: dict) -> None:
    log(f"{workload}:")
    for name, entry in metrics.items():
        log(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}")


def run_workload(args, spec: dict) -> int:
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    fingerprint = machine()
    if args.trace:
        outcome = measure_traced(args.workload, args.seed, args.seconds)
    else:
        outcome = measure(args.workload, args.seed, args.seconds)
    run: Run = outcome["run"]
    units = metric_units(spec, bool(args.trace))
    metrics = outcome["metrics"]
    correct = run.failed == 0 and bool(metrics)
    if metrics and set(metrics) != set(units):
        log(f"metric names {sorted(metrics)} do not match "
            f"{SPEC_PATH.name} {sorted(units)}")
        correct = False
    printed = {name: {"value": value, "unit": units.get(name, "")}
               for name, value in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "started_utc": started,
        "revision": revision(),
        "machine": fingerprint,
        "sizes": outcome["sizes"],
        "item": outcome["item"],
        "metrics": printed,
        "steps_s": run.steps,
        "probes_s": run.probes,
        "cpu_s": run.cpu,
        "loadavg_at_end": list(os.getloadavg()),
        "prefix_digest": outcome["prefix_digest"],
        "unit_digests": [d[:16] for d in run.unit_digests],
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    }
    record.update(outcome.get("extra", {}))
    path = write_record(record)
    print_metrics(args.workload, printed)
    log(f"  output digest {outcome['prefix_digest']}, "
        f"{len(run.steps)} timed units, record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": printed}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own subprocess, one after another."""
    names = [w["name"] for w in spec["workloads"]]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  cwd=str(ROOT), timeout=CHILD_TIMEOUT_S + 60)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last)
        except (subprocess.TimeoutExpired, ValueError) as error:
            log(f"{name}: {error}")
            result = {}
        if not result:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="classify CHANGE's run records against PARENT's")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--probe-server", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_server:
        return serve_probes()
    problem = check_environment()
    if problem:
        log(f"bench: {problem}")
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        make_workload(args.probe, args.seed)
        print("ready", flush=True)
        os._exit(0)  # the workload's teardown is not set-up time
    spec = load_json(SPEC_PATH)
    if args.compare:
        import compare

        return compare.main(spec, *args.compare)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"bench: unknown workload {args.workload!r}")
        return 2
    try:
        return run_workload(args, spec)
    finally:
        shutil.rmtree(RESULTS / "work", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
