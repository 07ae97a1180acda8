"""The four benchmark workloads, driven through ``repro``'s public entry points.

Every workload is a closed loop in one process: a pass starts only after the
previous one has finished. Only ``serve`` runs two worker threads.

``train``
    The paper's training set -- every identifiable algorithm x the
    ``w_timeout`` ladder x ``conditions_per_pair`` synthetic servers drawn
    from the default condition database -- then a random-forest fit
    (``TrainingSetBuilder.build_examples`` + ``CaaiClassifier.train``).
``census``
    ``CensusRunner.run`` over a paper-baseline population, classifying with
    a model loaded from an artifact.
``census-hostile``
    The same runner under the ``ack-manipulated`` scenario pack: wrapped
    servers bypass the columnar kernel, so every probe runs on the scalar
    per-ACK path.
``serve``
    The ``census`` population and seeds driven through
    ``CensusOrchestrator`` (two worker threads, a fresh checkpoint directory
    per pass); the merged report must equal the monolithic ``census`` one.

The census model is fitted once per run from the reference training set (the
``train`` workload's set at :data:`DEFAULT_SEED`, cached on disk because
building it takes seconds). ``train`` scores each fitted forest on the
reference vectors through ``CensusService.classify_batch``, untimed.

A pass returns raw seconds; ``run.py`` rescales them (``calibration.py``).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.features import FeatureVector
from repro.core.trace import InvalidReason
from repro.core.training import TrainingSetBuilder
from repro.ml.dataset import LabeledDataset
from repro.net.conditions import default_condition_database
from repro.serving.artifact import save_model
from repro.serving.orchestrator import CensusOrchestrator
from repro.serving.service import CensusService
from repro.web.population import PopulationConfig, ServerPopulation


WORKLOADS = ("train", "census", "census-hostile", "serve")

#: The seed whose outputs are pinned in :data:`PINNED`. Every run starts with
#: a warm-up pass on it, so every run checks the pinned digests.
DEFAULT_SEED = 1
#: Seed of the census workloads' population: the paper-baseline synthetic
#: Internet is a fixed corpus and ``--seed`` drives the measurement (every
#: server's probe stream, the shard assignment). The probe cost of a
#: 200-server population varies by about a quarter from one population seed
#: to the next, more than any bound the benchmark could hold; the census
#: seed moves it by 1-2 %.
POPULATION_SEED = 2011
#: Scenario pack of ``census-hostile``.
HOSTILE_PACK = "ack-manipulated"
#: Forest seed of every fitted model.
FOREST_SEED = 3
#: ``w_timeout`` passed with the reference vectors to ``classify_batch``.
CLASSIFY_W_TIMEOUT = 512
#: Setups timed back to back before the passes (``setup_s`` is the median
#: over these and every pass's own setup).
SETUP_REPS = 9
#: Identification quality of a pass. ``train``: accuracy of its forest on the
#: reference vectors, usable rows per probe. Census workloads:
#: ``CensusReport.accuracy_against_ground_truth`` and ``valid_fraction``.
QUALITY_METRICS = ("accuracy", "valid_fraction")
#: Lowest quality a full-scale pass may reach on any seed.
QUALITY_FLOORS: dict[str, dict[str, dict[str, float]]] = {"full": {
    "train": {"accuracy": 0.7, "valid_fraction": 0.8},
    "census": {"accuracy": 0.6, "valid_fraction": 0.35},
    "census-hostile": {"valid_fraction": 0.45},
    "serve": {"accuracy": 0.6, "valid_fraction": 0.35},
}}


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration."""

    name: str
    census_servers: int
    hostile_servers: int
    conditions_per_pair: int
    n_trees: int
    num_shards: int
    workers: int = 2


#: A pass takes about 2 s on the machine the benchmark was written on, so a
#: 20-second run makes about ten; more passes steady the median more than
#: larger ones would (a pass's work varies by 1-2 % between seeds, its
#: calibrated time by about 10 % from machine noise).
FULL = Scale("full", census_servers=100, hostile_servers=60,
             conditions_per_pair=2, n_trees=60, num_shards=4)
#: The self-tests' scale: every layer runs, in about a second per pass.
TINY = Scale("tiny", census_servers=12, hostile_servers=8,
             conditions_per_pair=1, n_trees=5, num_shards=3)

#: sha256 of the outputs at :data:`DEFAULT_SEED`: ``features``+``labels`` of
#: the training set, and the canonical census report JSON. ``serve`` must
#: reproduce the ``census`` digest.
PINNED: dict[str, dict[str, str]] = {
    "full": {
        "train": "de579dd8c97ab1a42e2a42a6be5b334247ea5a90e080a2a938d4d0008ea53a63",
        "census": "eae3552527e607250930e5ccaa663f01eb75030130cd9a40a288f49a974ae55b",
        "census-hostile": "3c76941e871a2e833409c44a757d64e00aded66ad08c5c4e04d7cca6bdf46564",
    },
    "tiny": {
        "train": "d44d89187a5c2ff70ba88533819bcdc17620fd863d1127a24df15c7817ae4d73",
        "census": "78aa89320e0cd66da04dd588f649c707b9921e546edd18e05523ddcde16448b2",
        "census-hostile": "d9738470580667609cdde22f5ccc49a7257ea4e0590c4f2148b916cff0d728a1",
    },
}


# --------------------------------------------------------------- digests
def dataset_digest(dataset: LabeledDataset) -> str:
    """sha256 of a training set's feature matrix and labels."""
    digest = hashlib.sha256(np.ascontiguousarray(dataset.features, dtype="<f8").tobytes())
    digest.update("\n".join(str(label) for label in dataset.labels).encode())
    return digest.hexdigest()


def report_digest(report) -> str:
    """sha256 of the canonical JSON of a census report's outcomes."""
    payload = json.dumps([outcome.to_json_dict() for outcome in report.outcomes],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------- passes
@dataclass
class Pass:
    """What one pass of a workload did and how long each part took (raw seconds)."""

    setup_s: float
    run_s: float
    servers: int
    digest: str
    attempted: int = 0
    failed: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)


@dataclass
class Context:
    """Per-run state shared by every pass of one workload."""

    workload: str
    scale: Scale
    work_dir: Path
    reference: LabeledDataset
    model_path: Path | None = None
    passes: int = 0


def _builder(scale: Scale, seed: int) -> TrainingSetBuilder:
    return TrainingSetBuilder(conditions_per_pair=scale.conditions_per_pair,
                              seed=seed,
                              condition_database=default_condition_database())


def _dataset(examples) -> LabeledDataset:
    """The examples packed exactly as ``TrainingSetBuilder.build_dataset`` does."""
    rows = [(example.vector.as_array(), example.label) for example in examples]
    return LabeledDataset.from_rows(rows, feature_names=FeatureVector.ELEMENT_NAMES)


def training_probes(examples, builder: TrainingSetBuilder) -> int:
    """Probes the builder ran to get ``examples``.

    A pair that filled its quota stopped at its last usable probe
    (``condition_index`` counts the pair's probes); a pair that did not
    spent the builder's whole budget of four probes per requested example.
    """
    last: dict[tuple[str, int], list[int]] = {}
    for example in examples:
        entry = last.setdefault((example.algorithm, example.w_timeout), [0, 0])
        entry[0] += 1
        entry[1] = example.condition_index + 1
    quota = builder.conditions_per_pair
    return sum(
        entry[1] if entry[0] >= quota else 4 * quota
        for entry in (last.get((algorithm, w_timeout), [0, 0])
                      for algorithm in builder.algorithms
                      for w_timeout in builder.w_timeouts))


def _fit(scale: Scale, dataset: LabeledDataset) -> CaaiClassifier:
    return CaaiClassifier(n_trees=scale.n_trees, seed=FOREST_SEED).train(dataset)


def _accuracy(classifier: CaaiClassifier, reference: LabeledDataset) -> float:
    """Share of the reference vectors ``classify_batch`` labels correctly."""
    identifications = CensusService(classifier).classify_batch(
        reference.features, CLASSIFY_W_TIMEOUT)
    correct = sum(1 for identification, label in zip(identifications, reference.labels)
                  if identification.label == label)
    return correct / len(reference)


def train_pass(ctx: Context, seed: int) -> Pass:
    began = time.perf_counter()
    builder = _builder(ctx.scale, seed)
    setup_s = time.perf_counter() - began

    began = time.perf_counter()
    examples = builder.build_examples()
    dataset = _dataset(examples)
    classifier = _fit(ctx.scale, dataset)
    run_s = time.perf_counter() - began

    probes = training_probes(examples, builder)
    return Pass(setup_s=setup_s, run_s=run_s, servers=probes, digest=dataset_digest(dataset), attempted=probes,
                quality={"accuracy": _accuracy(classifier, ctx.reference),
                         "valid_fraction": len(dataset) / probes},
                layer={"training.probes_attempted": probes,
                       "training.usable_ratio": len(dataset) / probes})


def _census_setup(ctx: Context, seed: int):
    hostile = ctx.workload == "census-hostile"
    service = CensusService.from_artifact(ctx.model_path)
    size = ctx.scale.hostile_servers if hostile else ctx.scale.census_servers
    population = ServerPopulation(PopulationConfig(size=size, seed=POPULATION_SEED))
    population.generate()
    runner = CensusRunner(service.classifier, CensusConfig(
        seed=seed, scenario_pack=HOSTILE_PACK if hostile else None))
    return population, runner


def _census_pass(report, setup_s: float, run_s: float, extra_failed: int = 0,
                 extra_attempted: int = 0) -> Pass:
    failed = sum(1 for outcome in report.outcomes
                 if outcome.invalid_reason is InvalidReason.WORKER_FAILED)
    return Pass(setup_s=setup_s, run_s=run_s, servers=len(report),
                digest=report_digest(report),
                attempted=len(report) + extra_attempted, failed=failed + extra_failed,
                quality={"accuracy": report.accuracy_against_ground_truth(),
                         "valid_fraction": report.valid_fraction()})


def census_pass(ctx: Context, seed: int) -> Pass:
    began = time.perf_counter()
    population, runner = _census_setup(ctx, seed)
    setup_s = time.perf_counter() - began

    began = time.perf_counter()
    report = runner.run(population)
    run_s = time.perf_counter() - began
    return _census_pass(report, setup_s, run_s)


def serve_pass(ctx: Context, seed: int) -> Pass:
    ctx.passes += 1
    checkpoint_dir = ctx.work_dir / f"checkpoint-{ctx.passes}"
    first_commit: list[float] = []

    def on_shard(shard_index, outcomes) -> None:
        first_commit.append(time.perf_counter())

    began = time.perf_counter()
    population, runner = _census_setup(ctx, seed)
    orchestrator = CensusOrchestrator(runner, population, checkpoint_dir,
                                      num_shards=ctx.scale.num_shards,
                                      on_shard=on_shard)
    setup_s = time.perf_counter() - began

    began = time.perf_counter()
    report = orchestrator.run(workers=ctx.scale.workers)
    run_s = time.perf_counter() - began
    shutil.rmtree(checkpoint_dir)

    stats = orchestrator.worker_stats()
    claimed = sum(len(s.completed) + len(s.discarded) for s in stats)
    # A shard measured twice (stolen, or discarded after losing its lease)
    # is wasted work: count it as a failed operation.
    wasted = sum(len(s.stolen) + len(s.discarded) for s in stats)
    result = _census_pass(report, setup_s, run_s, extra_failed=wasted,
                          extra_attempted=claimed)
    # What a ``repro.serve`` user waits for; it depends on which shard
    # commits first, so it is reported per layer rather than end to end.
    result.layer["orchestrator.first_result_s"] = min(first_commit) - began
    return result


PASSES = {"train": train_pass, "census": census_pass,
          "census-hostile": census_pass, "serve": serve_pass}


def run_pass(ctx: Context, seed: int, tracer=None) -> Pass:
    """One pass of the context's workload.

    With a ``tracer`` the pass runs inside it and its layer metrics are
    added to :attr:`Pass.layer`.
    """
    if tracer is None:
        return PASSES[ctx.workload](ctx, seed)
    with tracer:
        result = PASSES[ctx.workload](ctx, seed)
    result.layer.update(tracer.layer_metrics())
    return result


def setup_seconds(ctx: Context, seed: int) -> float:
    """Seconds one pass's set-up takes, without running the pass."""
    began = time.perf_counter()
    if ctx.workload == "train":
        _builder(ctx.scale, seed)
        return time.perf_counter() - began
    population, runner = _census_setup(ctx, seed)
    if ctx.workload != "serve":
        return time.perf_counter() - began
    ctx.passes += 1
    checkpoint_dir = ctx.work_dir / f"checkpoint-{ctx.passes}"
    CensusOrchestrator(runner, population, checkpoint_dir, num_shards=ctx.scale.num_shards)
    elapsed = time.perf_counter() - began
    shutil.rmtree(checkpoint_dir)
    return elapsed


# ----------------------------------------------------------------- set-up
def reference_dataset(scale: Scale, cache_dir: Path) -> LabeledDataset:
    """The ``train`` workload's training set at :data:`DEFAULT_SEED`.

    Cached as JSON (floats round-trip exactly); a cached copy whose digest
    is not the pinned one is rebuilt.
    """
    path = cache_dir / f"reference-{scale.name}.json"
    pinned = PINNED[scale.name]["train"]
    if path.exists():
        data = json.loads(path.read_text(encoding="utf-8"))
        dataset = LabeledDataset(np.asarray(data["features"], dtype=float),
                                 np.asarray(data["labels"], dtype=object),
                                 feature_names=FeatureVector.ELEMENT_NAMES)
        if dataset_digest(dataset) == pinned:
            return dataset
    dataset = _dataset(_builder(scale, DEFAULT_SEED).build_examples())
    cache_dir.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    partial.write_text(json.dumps({"features": dataset.features.tolist(),
                                   "labels": [str(label) for label in dataset.labels]}),
                       encoding="utf-8")
    partial.replace(path)
    return dataset


def prepare(workload: str, scale: Scale, work_dir: Path, cache_dir: Path) -> Context:
    """Everything a run pays once, before its first pass."""
    ctx = Context(workload=workload, scale=scale, work_dir=work_dir,
                  reference=reference_dataset(scale, cache_dir))
    if workload != "train":
        classifier = _fit(scale, ctx.reference)
        ctx.model_path = work_dir / "model.caai"
        save_model(classifier, ctx.model_path)
    return ctx
