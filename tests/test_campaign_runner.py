"""Campaign runner semantics (repro.campaign.runner + the CLI).

The determinism contract under test: a campaign's final artifacts —
``dataset.pkl`` bytes, merged ``metrics.prom``/``metrics.json``, and
``health.txt`` when the invariant monitors are on — are a pure function
of the spec.  Cache hits, corrupted-blob recomputes, a different
campaign directory, cell-level parallelism and a kill/resume must all
reproduce the cold serial bytes exactly.
"""

import dataclasses
import json
import os
import pickle
import signal
import subprocess
import sys

import pytest

from repro.campaign.__main__ import main as campaign_main
from repro.campaign.cells import decode_result
from repro.campaign.runner import (
    DATASET_NAME,
    HEALTH_NAME,
    METRICS_JSON_NAME,
    METRICS_PROM_NAME,
    PROGRESS_NAME,
    SPEC_NAME,
    CampaignRunner,
)
from repro.campaign.spec import (
    POPULATION,
    CampaignSpec,
    cell_key,
    plan_cells,
    resolve_config,
)
from repro.campaign.store import CampaignStore

#: Small but real: two seeds x two limits, one session each.
SPEC = CampaignSpec(
    seeds=(2016, 2017),
    limits_mbps=(0.5, 100.0),
    sessions_per_cell=1,
    watch_seconds=4.0,
    scale=0.02,
)

ARTIFACTS = (DATASET_NAME, METRICS_PROM_NAME, METRICS_JSON_NAME)


def _run(path, spec=SPEC, workers=1):
    store = CampaignStore(str(path))
    runner = CampaignRunner(store, spec, workers=workers)
    return store, runner.run()


def _artifact_bytes(path):
    return {name: CampaignStore(str(path)).read_artifact(name)
            for name in ARTIFACTS}


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold serial run; every identity test compares against it."""
    path = tmp_path_factory.mktemp("campaign-cold")
    _store, summary = _run(path)
    return path, summary, _artifact_bytes(path)


# -------------------------------------------------------------------- plan

def test_plan_is_deterministic_and_seed_major():
    cells = plan_cells(SPEC)
    assert [(c.seed, c.bandwidth_limit_mbps) for c in cells] == [
        (2016, 0.5), (2016, 100.0), (2017, 0.5), (2017, 100.0)
    ]
    assert [cell_key(c) for c in cells] == \
        [cell_key(c) for c in plan_cells(SPEC)]


def test_resolve_config_pins_workers_to_one():
    config = resolve_config(SPEC, 2016)
    assert config.workers == 1
    assert config.seed == 2016
    assert config.watch_seconds == SPEC.watch_seconds


def test_spec_round_trips_through_json():
    restored = CampaignSpec.from_json(SPEC.to_json())
    assert restored == SPEC
    population = CampaignSpec(kind=POPULATION, seeds=(7,), viewers=5000)
    assert CampaignSpec.from_json(population.to_json()) == population


def test_spec_reads_a_campaign_json_with_a_retired_field():
    payload = json.loads(SPEC.to_json())
    payload["exact_network"] = False  # a field of older specs
    assert CampaignSpec.from_json(json.dumps(payload)) == SPEC


# ---------------------------------------------------------------- cold run

def test_cold_run_executes_every_cell(cold):
    _path, summary, artifacts = cold
    assert summary.planned == 4
    assert summary.executed == 4
    assert summary.memoized == 0
    assert summary.corrupt_recomputed == 0
    for name in ARTIFACTS:
        assert artifacts[name], name


def test_dataset_payload_shape(cold):
    _path, _summary, artifacts = cold
    payload = pickle.loads(artifacts[DATASET_NAME])
    assert payload["kind"] == "sweep"
    assert len(payload["cells"]) == 4
    first = payload["cells"][0]
    assert first["seed"] == 2016
    assert first["bandwidth_limit_mbps"] == 0.5
    assert len(first["dataset"].sessions) == 1


def test_campaign_without_health_writes_no_health_artifact(cold):
    path, summary, _artifacts = cold
    assert CampaignStore(str(path)).read_artifact(HEALTH_NAME) is None
    assert "health" not in summary.artifacts
    assert summary.health is None


def test_progress_and_spec_artifacts_written(cold):
    path, _summary, _artifacts = cold
    store = CampaignStore(str(path))
    progress = store.read_artifact(PROGRESS_NAME).decode("utf-8")
    assert "campaign_complete 1" in progress
    assert "campaign_cells_planned 4" in progress
    assert CampaignSpec.from_json(
        store.read_artifact(SPEC_NAME).decode("utf-8")
    ) == SPEC


# -------------------------------------------------------------- memoization

def test_rerun_is_a_pure_cache_hit_with_identical_bytes(cold):
    path, _summary, reference = cold
    _store, summary = _run(path)
    assert summary.memoized == 4
    assert summary.executed == 0
    assert _artifact_bytes(path) == reference


def test_fresh_directory_reproduces_the_same_bytes(cold, tmp_path):
    _path, _summary, reference = cold
    _store, summary = _run(tmp_path / "other-dir")
    assert summary.executed == 4
    assert _artifact_bytes(tmp_path / "other-dir") == reference


def test_parallel_cells_reproduce_serial_bytes(cold, tmp_path):
    _path, _summary, reference = cold
    _store, summary = _run(tmp_path / "parallel", workers=2)
    assert summary.executed == 4
    assert _artifact_bytes(tmp_path / "parallel") == reference


def test_corrupted_blob_is_recomputed_not_served(cold, tmp_path):
    _path, _summary, reference = cold
    path = tmp_path / "rot"
    store, _summary2 = _run(path)
    address = sorted(store.completed_cells().values())[0]
    blob_path = store._blob_path(address)
    with open(blob_path, "r+b") as blob_file:
        blob_file.seek(10)
        blob_file.write(b"BITROT")
    _store3, summary = _run(path)
    assert summary.corrupt_recomputed == 1
    assert summary.executed == 1
    assert summary.memoized == 3
    assert _artifact_bytes(path) == reference


def test_spec_change_reuses_overlapping_cells(cold, tmp_path):
    path = tmp_path / "grow"
    _run(path)
    wider = CampaignSpec(
        seeds=SPEC.seeds,
        limits_mbps=(0.5, 2.0, 100.0),  # one new limit per seed
        sessions_per_cell=SPEC.sessions_per_cell,
        watch_seconds=SPEC.watch_seconds,
        scale=SPEC.scale,
    )
    _store, summary = _run(path, spec=wider)
    assert summary.planned == 6
    assert summary.memoized == 4   # the original grid is a cache hit
    assert summary.executed == 2   # only the new limit runs


# ------------------------------------------------------------------ status

def test_status_on_an_untouched_directory(tmp_path):
    runner = CampaignRunner(CampaignStore(str(tmp_path / "new")), SPEC)
    status = runner.status()
    assert status.planned == 4
    assert status.pending == 4
    assert status.memoized == 0
    assert not status.complete
    assert [state for _label, _key, state in status.cells] == ["pending"] * 4


def test_status_after_completion(cold):
    path, _summary, _artifacts = cold
    status = CampaignRunner(CampaignStore(str(path)), SPEC).status()
    assert status.complete
    assert status.memoized == 4
    assert {state for _l, _k, state in status.cells} == {"memoized"}


def test_status_counts_extra_journal_cells(cold, tmp_path):
    path = tmp_path / "extra"
    _run(path)
    narrower = CampaignSpec(
        seeds=(2016,), limits_mbps=(0.5,), sessions_per_cell=1,
        watch_seconds=4.0, scale=0.02,
    )
    status = CampaignRunner(CampaignStore(str(path)), narrower).status()
    assert status.planned == 1
    assert status.memoized == 1
    assert status.extra_journal == 3


# ------------------------------------------------------------------ CLI

CLI_GRID = ["--seeds", "2016,2017", "--limits", "0.5,100",
            "--sessions", "1", "--watch", "4", "--scale", "0.02"]


def test_cli_run_status_gc_round_trip(cold, tmp_path, capsys):
    _path, _summary, reference = cold
    campaign_dir = str(tmp_path / "cli")
    assert campaign_main(["run", "--campaign", campaign_dir] + CLI_GRID) == 0
    out = capsys.readouterr().out
    assert "4 cell(s)" in out and "4 executed" in out
    assert _artifact_bytes(campaign_dir) == reference

    # status reads the stored spec — no grid flags needed.
    assert campaign_main(["status", "--campaign", campaign_dir]) == 0
    out = capsys.readouterr().out
    assert "complete:        yes" in out
    assert "memoized" in out

    assert campaign_main(["gc", "--campaign", campaign_dir]) == 0
    out = capsys.readouterr().out
    assert "0 unreferenced blob(s)" in out
    assert _artifact_bytes(campaign_dir) == reference


def test_cli_locked_directory_exits_2(tmp_path, capsys):
    campaign_dir = str(tmp_path / "locked")
    holder = CampaignStore(campaign_dir)
    holder.acquire_lock()
    try:
        code = campaign_main(["run", "--campaign", campaign_dir] + CLI_GRID)
    finally:
        holder.close()
    assert code == 2
    assert "locked" in capsys.readouterr().err


# -------------------------------------------------------------- population

def test_population_campaign_runs_and_memoizes(tmp_path):
    spec = CampaignSpec(
        kind=POPULATION, seeds=(7,), viewers=2000, sample_budget=2,
        watch_seconds=4.0, scale=0.02,
    )
    path = tmp_path / "pop"
    _store, summary = _run(path, spec=spec)
    assert summary.planned == 1 and summary.executed == 1
    payload = pickle.loads(_artifact_bytes(path)[DATASET_NAME])
    assert payload["kind"] == "population"
    cell = payload["cells"][0]
    assert cell["viewers"] == 2000
    assert cell["totals"]  # cohort aggregates ship with population cells
    _store2, rerun = _run(path, spec=spec)
    assert rerun.memoized == 1 and rerun.executed == 0


# ------------------------------------------------------------------ health

#: The same grid with the invariant monitors on, under loss and jitter so
#: the link checks see retransmissions and deferral gaps.
HEALTH_SPEC = dataclasses.replace(
    SPEC, health_enabled=True, faults="loss=ge:0.02:0.3:0.5,jitter=0.005")
HEALTH_CLI_GRID = CLI_GRID + ["--health", "--faults", HEALTH_SPEC.faults]


def _health_bytes(path):
    return CampaignStore(str(path)).read_artifact(HEALTH_NAME)


@pytest.fixture(scope="module")
def health_cold(tmp_path_factory):
    """One cold serial run with health on."""
    path = tmp_path_factory.mktemp("campaign-health")
    _store, summary = _run(path, spec=HEALTH_SPEC)
    return path, summary, _health_bytes(path)


def test_health_artifact_folds_every_cell(health_cold):
    path, summary, report = health_cold
    store = CampaignStore(str(path))
    completed = store.completed_cells()
    checks = 0
    for key, _cell in CampaignRunner(store, HEALTH_SPEC).plan():
        result = decode_result(store.read_blob(completed[key]))
        checks += result.snapshots["health"]["checks_total"]
    assert checks > 0
    assert summary.health.checks_total == checks
    assert summary.artifacts["health"] == os.path.join(str(path), HEALTH_NAME)
    text = report.decode("utf-8")
    assert text.startswith("== study health: invariant monitors ==\n")
    assert f"checks evaluated: {checks}; violations: 0\n" in text


def test_health_artifact_is_stable_across_reruns_and_workers(
        health_cold, tmp_path):
    path, _summary, reference = health_cold
    _store, rerun = _run(path, spec=HEALTH_SPEC)
    assert rerun.executed == 0
    assert _health_bytes(path) == reference
    _store, parallel = _run(tmp_path / "parallel", spec=HEALTH_SPEC,
                            workers=2)
    assert parallel.executed == 4
    assert _health_bytes(tmp_path / "parallel") == reference


def test_health_artifact_survives_kill_and_resume(health_cold, tmp_path,
                                                  capsys):
    _path, summary, reference = health_cold
    campaign_dir = str(tmp_path / "killed")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    killed = subprocess.run(
        [sys.executable, "-m", "repro.campaign", "run", "--campaign",
         campaign_dir, "--kill-after-appends", "3"] + HEALTH_CLI_GRID,
        capture_output=True, text=True, env=env,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert _health_bytes(campaign_dir) is None
    assert campaign_main(["run", "--campaign", campaign_dir]
                         + HEALTH_CLI_GRID) == 0
    out = capsys.readouterr().out
    assert (f"checks evaluated: {summary.health.checks_total}; "
            f"violations: 0") in out
    assert _health_bytes(campaign_dir) == reference
