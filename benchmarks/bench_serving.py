"""Serving-layer benchmark: artifact cold start and concurrent throughput.

Measures the two numbers the serving layer exists for and writes them to
``BENCH_serving.json`` so the trajectory can be tracked across commits::

    PYTHONPATH=src python benchmarks/bench_serving.py [output.json]

* **Classifications per second** through
  :meth:`~repro.serving.service.CensusService.classify_batch` — single
  caller and under concurrent callers (the batched ``classify_vectors``
  path is the unit of work, so serving threads share one loaded model);
* **Sustained probes per second** through the work-stealing
  :class:`~repro.serving.orchestrator.CensusOrchestrator` with one and with
  two worker processes (probes = census probe attempts committed to the
  checkpoint per wall-clock second), as medians of paired runs, with a
  tripwire that two workers must beat one on a machine with two or more
  cores.

Both concurrent sections run with >= 2 workers, as the serving acceptance
criteria require. The artifact section records the cold-start story: fit
time vs save + load time, with a tripwire that loading must beat refitting
by a wide margin (that is the entire point of persistable artifacts).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import default_condition_database
from repro.serving.artifact import save_model, timed_load
from repro.serving.orchestrator import CensusOrchestrator
from repro.serving.service import CensusService
from repro.web.population import PopulationConfig, ServerPopulation

CENSUS_SIZE = 48
NUM_SHARDS = 12
CLASSIFY_BATCH = 2000
CLASSIFY_ROUNDS = 10
CONCURRENT_CLIENTS = 2
ORCHESTRATOR_WORKERS = 2
#: Back-to-back (1 worker, 2 workers) pairs; the order alternates per pair.
PAIRED_RUNS = 3
#: Tripwire: loading the artifact must beat retraining by at least this
#: factor (the development machine measures >100x; the margin is generous
#: so loaded CI runners do not flake).
MIN_LOAD_SPEEDUP = 10.0


def fit_classifier():
    builder = TrainingSetBuilder(
        conditions_per_pair=2, seed=31, w_timeouts=(64,),
        algorithms=("reno", "cubic-b", "vegas", "westwood", "bic", "htcp"),
        condition_database=default_condition_database(size=200, seed=9))
    classifier = CaaiClassifier(n_trees=30, seed=5)
    start = time.perf_counter()
    classifier.train(builder.build_dataset())
    return classifier, time.perf_counter() - start


def bench_artifact(classifier, fit_seconds, directory: Path) -> dict:
    path = directory / "model.caai"
    start = time.perf_counter()
    header = save_model(classifier, path)
    save_seconds = time.perf_counter() - start
    _, load_seconds = timed_load(path)
    speedup = fit_seconds / load_seconds
    print(f"  fit {fit_seconds:.2f}s  save {save_seconds * 1e3:.1f}ms  "
          f"load {load_seconds * 1e3:.1f}ms  ({speedup:.0f}x faster than "
          "refitting)", flush=True)
    if speedup < MIN_LOAD_SPEEDUP:
        raise SystemExit(
            f"FAIL: artifact load ({load_seconds:.3f}s) is less than "
            f"{MIN_LOAD_SPEEDUP}x faster than refitting ({fit_seconds:.3f}s)")
    return {
        "fit_seconds": round(fit_seconds, 4),
        "save_seconds": round(save_seconds, 4),
        "load_seconds": round(load_seconds, 4),
        "load_speedup_vs_fit": round(speedup, 1),
        "artifact_bytes": path.stat().st_size,
        "payload_bytes": header["payload_nbytes"],
    }


def bench_classify(service: CensusService) -> dict:
    vectors = np.random.default_rng(7).normal(size=(CLASSIFY_BATCH, 7))
    service.classify_batch(vectors, 64)  # warm-up

    start = time.perf_counter()
    for _ in range(CLASSIFY_ROUNDS):
        service.classify_batch(vectors, 64)
    single_seconds = time.perf_counter() - start
    single_rate = CLASSIFY_BATCH * CLASSIFY_ROUNDS / single_seconds

    def client():
        for _ in range(CLASSIFY_ROUNDS):
            service.classify_batch(vectors, 64)

    threads = [threading.Thread(target=client)
               for _ in range(CONCURRENT_CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    concurrent_seconds = time.perf_counter() - start
    concurrent_rate = (CLASSIFY_BATCH * CLASSIFY_ROUNDS * CONCURRENT_CLIENTS
                       / concurrent_seconds)
    print(f"  classify: {single_rate:,.0f}/s single caller, "
          f"{concurrent_rate:,.0f}/s aggregate with "
          f"{CONCURRENT_CLIENTS} concurrent callers", flush=True)
    return {
        "batch_size": CLASSIFY_BATCH,
        "single_caller_per_second": round(single_rate, 1),
        "concurrent_callers": CONCURRENT_CLIENTS,
        "concurrent_aggregate_per_second": round(concurrent_rate, 1),
    }


def run_orchestrator(classifier, directory: Path, workers: int):
    """One orchestrated census; returns ``(seconds, probes, outcome blob)``."""
    population = ServerPopulation(PopulationConfig(size=CENSUS_SIZE, seed=424))
    population.generate()
    runner = CensusRunner(classifier, CensusConfig(seed=17))
    orchestrator = CensusOrchestrator(runner, population, directory,
                                      num_shards=NUM_SHARDS)
    start = time.perf_counter()
    report = orchestrator.run(workers=workers)
    seconds = time.perf_counter() - start
    probes = sum(outcome.attempts for outcome in report.outcomes)
    blob = json.dumps([outcome.to_json_dict() for outcome in report.outcomes],
                      sort_keys=True)
    return seconds, probes, blob


def bench_orchestrator(classifier, directory: Path) -> dict:
    counts = (1, ORCHESTRATOR_WORKERS)
    seconds = {workers: [] for workers in counts}
    blobs = set()
    for pair in range(PAIRED_RUNS):
        for workers in (counts if pair % 2 == 0 else counts[::-1]):
            elapsed, probes, blob = run_orchestrator(
                classifier, directory / f"ckpt-{pair}-{workers}", workers)
            seconds[workers].append(elapsed)
            blobs.add(blob)
            print(f"  orchestrator x{workers}: {elapsed:.2f}s  "
                  f"{probes / elapsed:.1f} probes/s", flush=True)
    if len(blobs) != 1:
        raise SystemExit("FAIL: concurrent orchestrator run diverged from "
                         "the single-worker run")
    result = {"servers": CENSUS_SIZE, "num_shards": NUM_SHARDS,
              "paired_runs": PAIRED_RUNS}
    for workers in counts:
        median = statistics.median(seconds[workers])
        result[f"workers_{workers}"] = {
            "seconds": round(median, 3),
            "runs_seconds": [round(value, 3) for value in seconds[workers]],
            "servers_per_second": round(CENSUS_SIZE / median, 2),
            "sustained_probes_per_second": round(probes / median, 2),
        }
    speedup = statistics.median(
        one / many for one, many in zip(seconds[1],
                                        seconds[ORCHESTRATOR_WORKERS]))
    result[f"workers_{ORCHESTRATOR_WORKERS}_speedup"] = round(speedup, 3)
    print(f"  x{ORCHESTRATOR_WORKERS} over x1: {speedup:.2f} (median of "
          f"{PAIRED_RUNS} pairs)", flush=True)
    if (os.cpu_count() or 1) >= 2 and speedup <= 1.0:
        raise SystemExit(
            f"FAIL: {ORCHESTRATOR_WORKERS} orchestrator workers are not "
            f"faster than 1 (median paired speedup {speedup:.2f})")
    return result


def main() -> None:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "BENCH_serving.json")
    print("fitting a small classifier ...", flush=True)
    classifier, fit_seconds = fit_classifier()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        print("artifact cold start:", flush=True)
        artifact = bench_artifact(classifier, fit_seconds, directory)
        service = CensusService.from_artifact(directory / "model.caai")
        print("classification throughput:", flush=True)
        classify = bench_classify(service)
        print("orchestrated census throughput:", flush=True)
        orchestrator = bench_orchestrator(service.classifier, directory)
    payload = {
        "benchmark": "serving",
        "artifact": artifact,
        "classify": classify,
        "orchestrator": orchestrator,
    }
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
