"""Bytes, digests and draws pinned across code versions.

The other tests check that the code agrees with itself; these check that it
agrees with files and values written by earlier versions of it, so a change
to a writer, a reader or a hash recipe fails here even when it is
self-consistent.

* **The frozen classic census** (``fixtures/classic_census_frozen.json``):
  the report digest and the checkpoint file hashes of a classic-only
  census, frozen before the modern congestion-control families were added.
  A failure names the NumPy version the pins were verified under and the
  running one.
* **Format-v1 stores** (``fixtures/v1_stores/``), written by the code
  before :mod:`repro.store` existed, with the steps below; each must still
  load and verify:

  - ``model.caai``: ``save_model`` of a ``CaaiClassifier(n_trees=3,
    seed=5)`` trained on ``TrainingSetBuilder(conditions_per_pair=2,
    seed=31, w_timeouts=(64,), algorithms=("reno", "cubic-b", "vegas"),
    condition_database=default_condition_database(size=50, seed=9))``, with
    ``metadata={"trees": 3}``;
  - ``checkpoint/``: ``CensusRunner(<that model>, CensusConfig(seed=17))``
    over ``PopulationConfig(size=6, seed=424)``: a fixed-shard census of
    ``num_shards=2`` stopped after one shard; then ``WorkQueue.claim
    ("worker-0")`` under a clock fixed at 1000.0, host ``fixture-host`` and
    pid 4242, which leased shard 1; then a resume of the fixed-shard
    census. The lease stays in ``queue.json``, as a worker killed between
    committing its shard and dropping its lease leaves it; the empty
    ``queue.lock`` was not kept;
  - ``experiments/smoke/``: ``ArtifactStore(..., "smoke").write("fixture",
    "f1a2b3c4d5e6f708", payload, elapsed_seconds=0.25)`` with the payload
    :meth:`TestV1Stores.test_experiment_artifact_loads` expects.
* **Hash-derived keys**: shard assignment, a fault-plan draw and the
  evasion side stream, computed by the same earlier code.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import (
    CensusCheckpoint,
    classifier_fingerprint,
    shard_of,
)
from repro.core.classifier import CaaiClassifier
from repro.core.training import TrainingSetBuilder
from repro.experiments.store import ArtifactStore
from repro.faults.plan import FaultPlan, FaultSpec
from repro.net.conditions import default_condition_database
from repro.scenarios.evasion import evasion_rng
from repro.serving.artifact import load_model
from repro.serving.orchestrator import CensusOrchestrator
from repro.serving.queue import LOCK_NAME, QUEUE_NAME, WorkQueue
from repro.web.population import PopulationConfig, ServerPopulation
from tests.conftest import numpy_versions

FIXTURES = Path(__file__).parent / "fixtures"
V1_STORES = FIXTURES / "v1_stores"


def report_digest(report) -> str:
    return hashlib.sha256(json.dumps(
        [outcome.to_json_dict() for outcome in report.outcomes],
        sort_keys=True).encode("utf-8")).hexdigest()


def population(size: int, seed: int) -> ServerPopulation:
    generated = ServerPopulation(PopulationConfig(size=size, seed=seed))
    generated.generate()
    return generated


class TestFrozenClassicCensus:
    """A classic-only census reproduces the frozen bytes."""

    @pytest.fixture(scope="class")
    def classifier(self) -> CaaiClassifier:
        builder = TrainingSetBuilder(
            conditions_per_pair=2, seed=31, w_timeouts=(64,),
            algorithms=("reno", "cubic-b", "vegas", "westwood"),
            condition_database=default_condition_database(size=200, seed=9))
        classifier = CaaiClassifier(n_trees=20, seed=5)
        classifier.train(builder.build_dataset())
        return classifier

    @pytest.fixture(scope="class")
    def frozen(self) -> dict:
        return json.loads(
            (FIXTURES / "classic_census_frozen.json").read_text())

    def test_report_bytes(self, classifier, frozen):
        report = CensusRunner(classifier, CensusConfig(seed=17)).run(
            population(24, 424))
        assert report_digest(report) == frozen["report_sha256"], (
            numpy_versions())

    def test_checkpoint_bytes(self, classifier, frozen, tmp_path):
        runner = CensusRunner(classifier, CensusConfig(seed=17))
        CensusOrchestrator(runner, population(24, 424), tmp_path,
                           num_shards=4).run(workers=1)
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(tmp_path.iterdir())}
        # The frozen files predate the work queue, whose state and lock
        # files are the only additions.
        assert set(written) - set(frozen["checkpoint_files"]) == {
            QUEUE_NAME, LOCK_NAME}
        assert {name: written[name] for name in frozen["checkpoint_files"]
                } == frozen["checkpoint_files"], numpy_versions()


class TestV1Stores:
    """Files written by the code before :mod:`repro.store` still load."""

    @pytest.fixture
    def stores(self, tmp_path) -> Path:
        # A copy: opening the queue creates its lock file.
        return shutil.copytree(V1_STORES, tmp_path / "v1")

    def test_model_artifact_loads_and_verifies(self, stores):
        classifier = load_model(stores / "model.caai")
        assert classifier_fingerprint(classifier) == (
            "52243cd2b842e164dac76db839454184cebf47851d3a7e9b0d5653545169dc35")

    def test_checkpoint_resumes_and_merges(self, stores):
        runner = CensusRunner(load_model(stores / "model.caai"),
                              CensusConfig(seed=17))
        # Attaching recomputes the census fingerprint before merging.
        report = CensusOrchestrator(runner, population(6, 424),
                                    stores / "checkpoint").run(workers=1)
        assert report_digest(report) == (
            "6edf011df68eef7e1127a5eea0847ee456870936288a7df754c8a75cdad5e00f")

    def test_queue_lease_survives(self, stores):
        checkpoint = CensusCheckpoint.open(stores / "checkpoint")
        snapshot = WorkQueue(checkpoint).snapshot()
        assert snapshot["pending_shards"] == []
        assert snapshot["leases"] == {1: {
            "acquired_at": 1000.0, "generation": 0, "heartbeat_at": 1000.0,
            "host": "fixture-host", "pid": 4242, "worker": "worker-0"}}

    def test_experiment_artifact_loads(self, stores):
        store = ArtifactStore(stores / "experiments" / "smoke", "smoke")
        assert store.load("fixture", "f1a2b3c4d5e6f708") == {
            "metrics": {"accuracy": 0.1 + 0.2},
            "rows": [[1, "reno"], [2, "cubic-b"]]}
        assert store.is_current("fixture", "f1a2b3c4d5e6f708")


class TestHashDerivedKeys:
    """Seeded keys and draws keep their values across versions."""

    @pytest.mark.parametrize("server_id,seed,key,shards", [
        ("server-000000", 7, 17659875327645469512, (0, 0)),
        ("server-000017", 7, 10618265557567359448, (1, 0)),
        ("s-0042", 123, 8659715406789493960, (1, 0)),
    ])
    def test_shard_of(self, server_id, seed, key, shards):
        assert shard_of(server_id, seed, 2 ** 64) == key
        assert (shard_of(server_id, seed, 3),
                shard_of(server_id, seed, 8)) == shards

    def test_fault_plan_draw(self):
        spec = FaultSpec("unresponsive", probability=0.5)
        plan = FaultPlan(seed=11, specs=(spec,))
        assert plan._draw(spec, "server-000042") == 0.37300574493306976

    def test_evasion_stream(self):
        assert evasion_rng(5, "server-000003", 1).random() == 0.776291307097935
