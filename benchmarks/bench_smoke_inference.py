"""Benchmark smoke script: forest fit/predict plus a small census.

Times the inference-engine hot paths and writes ``BENCH_inference.json`` so
the performance trajectory of the reproduction can be tracked across commits::

    PYTHONPATH=src python benchmarks/bench_smoke_inference.py [output.json]

The workload is fixed (no knob scales it):
a full training set, a 60-tree forest, a 1,000-vector prediction batch (timed
against the per-sample reference loop) and a 100-server census.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.training import TrainingSetBuilder
from repro.ml.random_forest import RandomForestClassifier
from repro.net.conditions import default_condition_database
from repro.web.population import PopulationConfig, ServerPopulation

BATCH_SIZE = 1_000
N_TREES = 60
CENSUS_SIZE = 100


def best_of(function, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def paired_speedups(fast, slow, rounds: int = 5) -> list[float]:
    """Time ``fast`` and ``slow`` back to back each round.

    Pairing the measurements keeps the ratio meaningful on noisy/shared
    machines: background load hits both sides of a pair roughly equally.
    """
    ratios = []
    for _ in range(rounds):
        start = time.perf_counter()
        fast()
        fast_seconds = time.perf_counter() - start
        start = time.perf_counter()
        slow()
        slow_seconds = time.perf_counter() - start
        ratios.append(slow_seconds / fast_seconds)
    return ratios


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_inference.json"
    results: dict = {"scale": "small", "n_trees": N_TREES, "batch_size": BATCH_SIZE}

    print("building training set ...", flush=True)
    builder = TrainingSetBuilder(
        conditions_per_pair=6, seed=7,
        condition_database=default_condition_database(size=1000, seed=2010))
    start = time.perf_counter()
    training_set = builder.build_dataset()
    results["training_set_seconds"] = round(time.perf_counter() - start, 3)
    results["training_set_rows"] = len(training_set)

    print("fitting forest ...", flush=True)
    forest = RandomForestClassifier(n_trees=N_TREES, max_features=4, seed=3)
    start = time.perf_counter()
    forest.fit(training_set)
    results["forest_fit_seconds"] = round(time.perf_counter() - start, 3)

    rng = np.random.default_rng(0)
    queries = (training_set.features[rng.integers(0, len(training_set), BATCH_SIZE)]
               + rng.normal(scale=0.01, size=(BATCH_SIZE, training_set.n_features)))
    forest.predict(queries[:2])  # build the stacked arrays outside the timing

    print("timing batch prediction vs per-sample reference loop ...", flush=True)
    batch_seconds = best_of(lambda: forest.predict(queries), rounds=5)
    reference_seconds = best_of(
        lambda: [forest.vote_one_reference(row) for row in queries], rounds=3)
    speedups = paired_speedups(
        lambda: forest.predict(queries),
        lambda: [forest.vote_one_reference(row) for row in queries], rounds=7)
    batch_predictions = forest.predict(queries)
    reference_predictions = [forest.vote_one_reference(row).label for row in queries]

    if list(batch_predictions) != reference_predictions:
        raise SystemExit("FAIL: batch predictions diverge from the reference loop")
    # The headline (and the gate below) is the median paired ratio; the best
    # round is reported alongside as the least-interference observation.
    speedup = sorted(speedups)[len(speedups) // 2]
    results["batch_predict_seconds"] = round(batch_seconds, 4)
    results["reference_predict_seconds"] = round(reference_seconds, 4)
    results["predict_speedup"] = round(speedup, 1)
    results["predict_speedup_best"] = round(max(speedups), 1)

    print("running census ...", flush=True)
    classifier = CaaiClassifier(n_trees=N_TREES, seed=3)
    classifier.train(training_set)
    population = ServerPopulation(PopulationConfig(size=CENSUS_SIZE, seed=2011))
    population.generate()
    start = time.perf_counter()
    report = CensusRunner(classifier, CensusConfig(seed=99)).run(population)
    results["census_seconds"] = round(time.perf_counter() - start, 3)
    results["census_size"] = len(report)
    results["census_valid_fraction"] = round(report.valid_fraction(), 3)

    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nbatch prediction speedup over per-sample loop: {speedup:.1f}x")
    # The gate is a devectorization tripwire, not a precise ratio: the same
    # commit measures anywhere between ~8.5x and ~12x depending on machine
    # load, so the threshold sits well below the observed range while still
    # failing loudly if the batch path degenerates towards the per-sample
    # loop (~1x).
    if speedup < 6.0:
        raise SystemExit(f"FAIL: speedup {speedup:.1f}x is below the 6x tripwire")
    print(f"wrote {output_path}")


if __name__ == "__main__":
    main()
