"""CI check: the adversarial scenario layer stays byte-reproducible.

Exercises every guarantee docs/SCENARIOS.md makes:

1. **Baseline transparency** — a census with ``scenario_pack="paper-baseline"``
   (and with neutral middlebox/evasion wrappers applied by hand) must be
   byte-identical to a census with no scenario layer at all: the pack
   machinery may not perturb a single rng draw or report byte when it has
   nothing to inject.
2. **Adversarial determinism** — a census under a wrapping pack run twice
   against fresh populations, and again on the ``process`` backend, must
   produce bit-identical reports.
3. **Experiment determinism** — the ``robustness_scenarios`` registry
   experiment at the smoke profile must produce byte-identical payloads on
   the serial and process backends.

Any byte of difference fails the build::

    PYTHONPATH=src python benchmarks/check_scenario_smoke.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.gather import GatherConfig, TraceGatherer
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import NetworkCondition, default_condition_database
from repro.scenarios import (EvasionConfig, EvasiveServer, MiddleboxConfig,
                             MiddleboxServer)
from repro.web.population import PopulationConfig, ServerPopulation

SERVERS = 24
CENSUS_SEED = 17
POPULATION_SEED = 424


def train_classifier() -> CaaiClassifier:
    builder = TrainingSetBuilder(
        conditions_per_pair=2, seed=31, w_timeouts=(64,),
        algorithms=("reno", "cubic-b", "vegas", "westwood"),
        condition_database=default_condition_database(size=200, seed=9))
    classifier = CaaiClassifier(n_trees=20, seed=5)
    classifier.train(builder.build_dataset())
    return classifier


def fresh_population() -> ServerPopulation:
    # Probing mutates server state (connection counters, cached TCP state),
    # so every run gets its own identically seeded population.
    population = ServerPopulation(
        PopulationConfig(size=SERVERS, seed=POPULATION_SEED))
    population.generate()
    return population


def report_bytes(report) -> bytes:
    return json.dumps([outcome.to_json_dict() for outcome in report.outcomes],
                      sort_keys=True).encode("utf-8")


def run_census(classifier, config: CensusConfig) -> bytes:
    return report_bytes(CensusRunner(classifier, config).run(
        fresh_population()))


def check_baseline_transparency(classifier) -> None:
    print("1) baseline transparency: paper-baseline pack vs no pack ...",
          flush=True)
    reference = run_census(classifier, CensusConfig(seed=CENSUS_SEED))
    baseline_pack = run_census(
        classifier, CensusConfig(seed=CENSUS_SEED,
                                 scenario_pack="paper-baseline"))
    if reference != baseline_pack:
        raise SystemExit("FAIL: the paper-baseline pack changed report bytes")

    # Neutral wrappers applied by hand must be bit-transparent too: same
    # probe trace, same rng end state.
    condition = NetworkCondition(average_rtt=0.2, rtt_std=0.01,
                                 loss_rate=0.01)
    gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))

    def probe(wrap):
        population = fresh_population()
        server = population.records[0].server
        if wrap:
            server = MiddleboxServer(
                EvasiveServer(server, EvasionConfig(), pack_seed=0,
                              server_id="s"),
                MiddleboxConfig())
        rng = np.random.default_rng(5)
        trace = gatherer.gather_probe(server, condition, rng)
        return [tuple(t.pre_timeout) + tuple(t.post_timeout)
                for t in trace.traces()], rng.bit_generator.state

    plain_trace, plain_state = probe(wrap=False)
    neutral_trace, neutral_state = probe(wrap=True)
    if plain_trace != neutral_trace or plain_state != neutral_state:
        raise SystemExit("FAIL: neutral wrappers perturbed a probe trace "
                         "or consumed rng draws")
    print("   OK: reports and neutral-wrapper traces byte-identical")


def check_adversarial_determinism(classifier) -> None:
    print("2) adversarial determinism: wrapping pack, serial vs process ...",
          flush=True)
    config = CensusConfig(seed=CENSUS_SEED, scenario_pack="ack-manipulated")
    first = run_census(classifier, config)
    second = run_census(classifier, config)
    if first != second:
        raise SystemExit("FAIL: two runs under the same pack differ")
    if first == run_census(classifier, CensusConfig(seed=CENSUS_SEED)):
        raise SystemExit("FAIL: the ack-manipulated pack did not engage")
    multiprocess = run_census(
        classifier, CensusConfig(seed=CENSUS_SEED,
                                 scenario_pack="ack-manipulated",
                                 backend="process", max_workers=2))
    if first != multiprocess:
        raise SystemExit("FAIL: pack census differs between the serial and "
                         "process backends")
    print("   OK: pack census deterministic across runs and backends")


def check_experiment_determinism() -> None:
    print("3) robustness_scenarios experiment: serial vs process ...",
          flush=True)
    from repro.experiments.profiles import profile_by_name
    from repro.experiments.registry import ExperimentContext, get_experiment
    from repro.experiments.resources import ResourcePool
    from repro.parallel import ParallelExecutor

    experiment = get_experiment("robustness_scenarios")
    profile = profile_by_name("smoke")

    def payload(executor):
        pool = ResourcePool(profile=profile, executor=executor)
        context = ExperimentContext(profile=profile, pool=pool,
                                    executor=executor)
        return json.dumps(experiment.compute(context),
                          sort_keys=True).encode("utf-8")

    serial = payload(None)
    multiprocess = payload(ParallelExecutor(backend="process", max_workers=2))
    if serial != multiprocess:
        raise SystemExit("FAIL: robustness_scenarios payload differs "
                         "between the serial and process backends")
    packs = json.loads(serial)["packs"]
    baseline = packs["paper-baseline"]
    if any(delta != 0.0
           for delta in baseline["confusion_delta"].values()):
        raise SystemExit("FAIL: the paper-baseline row drifted from the "
                         "shared census report")
    print(f"   OK: payload byte-identical across backends "
          f"({len(packs)} packs)")


def main() -> None:
    print("training classifier ...", flush=True)
    classifier = train_classifier()
    check_baseline_transparency(classifier)
    check_adversarial_determinism(classifier)
    check_experiment_determinism()
    print("OK: baseline packs bit-transparent, adversarial packs "
          "deterministic, experiment payload backend-independent")


if __name__ == "__main__":
    main()
