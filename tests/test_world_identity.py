"""Identity properties of population-scale worlds.

The mesoscale layer (:mod:`repro.world`) advertises two guarantees:

* **anchored fidelity** — a cohort member promoted by the stratified
  sampler runs through the unchanged per-packet simulator, so expanding
  it inside the sharded world is bit-identical to running the same
  :class:`~repro.core.session.SessionSetup` standalone;
* **shard/worker invariance** — every RNG draw is keyed by broadcaster
  index, so shard count and worker count are invisible in the sampled
  dataset, the cohort totals, and the merged telemetry.

These tests sweep seeds, fault plans, worker counts, and shard counts,
comparing by pickled bytes — any float, ordering, or RNG divergence
fails loudly (mirroring ``test_fastpath_identity.py``).
"""

import pickle

import pytest

from repro import obs
from repro.core.config import StudyConfig
from repro.core.popstudy import PopulationStudy, setup_for
from repro.core.session import ViewingSession
from repro.faults import FaultPlan
from repro.netsim import fastpath
from repro.service.ingest import IngestPool
from repro.util.rng import child_rng
from repro.world.popularity import PopulationParameters

SEEDS = list(range(61, 71))  # 10 seeds

FAULT_SPEC = "loss=0.02,jitter=0.005,ingest=0.03:1:2,api5xx=0.1"

#: Tiny but non-degenerate world: a few dozen broadcasters, both
#: protocols represented, and a handful of promoted members per run.
WORLD_VIEWERS = 300
SAMPLE_BUDGET = 5
WATCH_SECONDS = 4.0


def _config(seed: int, faulted: bool, workers: int = 1,
            metrics: bool = False) -> StudyConfig:
    return StudyConfig(
        seed=seed,
        watch_seconds=WATCH_SECONDS,
        workers=workers,
        metrics_enabled=metrics,
        faults=FaultPlan.parse(FAULT_SPEC) if faulted else None,
    )


def _world(seed: int, faulted: bool, workers: int = 1, shards=None,
           metrics: bool = False):
    study = PopulationStudy(
        _config(seed, faulted, workers, metrics),
        PopulationParameters(viewers=WORLD_VIEWERS,
                             sample_budget=SAMPLE_BUDGET),
    )
    return study.run(shards=shards)


def _result_bytes(result) -> tuple:
    """Byte-level fingerprint of a population run.

    Sessions and requests are pickled one by one: a whole-list pickle
    also encodes which objects happen to be *shared* between entries,
    and the process-pool path legitimately loses that sharing when
    results cross the process boundary."""
    return (
        [pickle.dumps(q) for q in result.sampled.sessions],
        result.sampled.avatar_bytes,
        result.sampled.down_bytes,
        [pickle.dumps(r) for r in result.world.requests],
        pickle.dumps(result.world.totals),
        (result.world.broadcasters, result.world.live_broadcasters,
         result.world.cohorts),
    )


class TestExpansionIdentitySweep:
    """Promoted cohort member == the same SessionSetup run standalone."""

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["pristine", "faulted"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_expansion_equals_standalone(self, seed, faulted):
        result = _world(seed, faulted)
        assert result.world.requests, "world promoted no members"
        assert len(result.sampled.sessions) == len(result.world.requests)
        faults = FaultPlan.parse(FAULT_SPEC) if faulted else None
        ingest = IngestPool(child_rng(seed, "ingest-pool"))
        with fastpath.exact_network(False):
            for index, request in enumerate(result.world.requests):
                artifacts = ViewingSession(
                    setup_for(seed, request, faults), ingest=ingest
                ).run()
                assert (pickle.dumps(artifacts.qoe)
                        == pickle.dumps(result.sampled.sessions[index]))
                assert (artifacts.avatar_bytes
                        == result.sampled.avatar_bytes[index])
                assert (artifacts.total_down_bytes
                        == result.sampled.down_bytes[index])


class TestShardAndWorkerInvariance:
    """1 shard == N shards == M workers, byte for byte."""

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["pristine", "faulted"])
    def test_shard_and_worker_counts_agree(self, faulted):
        seed = 2016
        reference = _result_bytes(_world(seed, faulted, workers=1, shards=1))
        assert _result_bytes(
            _world(seed, faulted, workers=1, shards=6)) == reference
        for workers in (2, 4):
            assert _result_bytes(
                _world(seed, faulted, workers=workers)) == reference

    def test_merged_metric_snapshots_agree(self):
        seed = 2016
        snapshots = {}
        for workers in (1, 2, 4):
            telemetry = obs.activate(obs.Telemetry(
                metrics=True, tracing=False, profiling=False,
                causes=False, health=False,
            ))
            try:
                _world(seed, faulted=False, workers=workers, metrics=True)
                snapshots[workers] = telemetry.metrics.snapshot()
            finally:
                obs.deactivate()
        assert snapshots[2] == snapshots[1]
        assert snapshots[4] == snapshots[1]
