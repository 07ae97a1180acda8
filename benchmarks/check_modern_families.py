"""CI check: the modern families ride along without disturbing the census.

The modern-families extension (BBR, DCTCP, learned-CC) must be strictly
additive: with ECN off and only classic families in play, nothing — not one
report byte, not one checkpoint byte, not one rng draw — may differ from the
state of the repo before the families landed. This script enforces that
against a **frozen pre-PR snapshot** committed in
``benchmarks/fixtures/classic_census_frozen.json``:

1. **Classic census byte-identity** — a classic-only, zero-ECN census must
   match the frozen report bytes.
2. **Checkpoint byte-identity** — the same census run sharded must produce
   shard/manifest files hashing exactly as frozen.
3. **Modern families experiment** — the ``modern_families`` registry
   experiment at the smoke profile must compute, and its rendered section
   must contain the extended 17-family confusion matrix and the mixed
   classic+modern census table.
4. **ECN engages** — the default-off knob must actually do something when
   turned on: a DCTCP probe under marking must diverge from RENO's, while
   an unmarked DCTCP probe stays bit-identical to RENO's.

Any byte of difference fails the build::

    PYTHONPATH=src python benchmarks/check_modern_families.py

The snapshot was generated on the pre-PR tree (only steps 1-2 run there)::

    PYTHONPATH=src python benchmarks/check_modern_families.py --freeze
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.gather import GatherConfig, SyntheticServer, TraceGatherer
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import NetworkCondition, default_condition_database
from repro.tcp.connection import SenderConfig
from repro.web.population import PopulationConfig, ServerPopulation

SNAPSHOT = (pathlib.Path(__file__).parent / "fixtures"
            / "classic_census_frozen.json")

SERVERS = 24
CENSUS_SEED = 17
POPULATION_SEED = 424
NUM_SHARDS = 4

#: Classic-only training subset: cheap, and pre-PR by construction.
CLASSIC_TRAINING = ("reno", "cubic-b", "vegas", "westwood")


def train_classifier() -> CaaiClassifier:
    builder = TrainingSetBuilder(
        conditions_per_pair=2, seed=31, w_timeouts=(64,),
        algorithms=CLASSIC_TRAINING,
        condition_database=default_condition_database(size=200, seed=9))
    classifier = CaaiClassifier(n_trees=20, seed=5)
    classifier.train(builder.build_dataset())
    return classifier


def fresh_population() -> ServerPopulation:
    population = ServerPopulation(
        PopulationConfig(size=SERVERS, seed=POPULATION_SEED))
    population.generate()
    return population


def report_bytes(report) -> bytes:
    return json.dumps([outcome.to_json_dict() for outcome in report.outcomes],
                      sort_keys=True).encode("utf-8")


def census_report_bytes(classifier) -> bytes:
    report = CensusRunner(classifier, CensusConfig(seed=CENSUS_SEED)).run(
        fresh_population())
    return report_bytes(report)


def checkpoint_hashes(classifier) -> dict[str, str]:
    """Run the census sharded and hash every file it persisted."""
    runner = CensusRunner(classifier, CensusConfig(seed=CENSUS_SEED))
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        runner.run_sharded(fresh_population(), checkpoint_dir,
                           num_shards=NUM_SHARDS)
        root = pathlib.Path(checkpoint_dir)
        return {str(path.relative_to(root)):
                hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(root.rglob("*")) if path.is_file()}


def classic_snapshot(classifier) -> dict:
    return {
        "report_sha256": hashlib.sha256(
            census_report_bytes(classifier)).hexdigest(),
        "checkpoint_files": checkpoint_hashes(classifier),
    }


def check_classic_census(classifier, frozen: dict) -> None:
    print("1) classic-only zero-ECN census vs frozen pre-PR snapshot ...",
          flush=True)
    current = hashlib.sha256(census_report_bytes(classifier)).hexdigest()
    if current != frozen["report_sha256"]:
        raise SystemExit("FAIL: the classic census report drifted from the "
                         "frozen pre-PR snapshot")
    print("   OK: report bytes frozen")


def check_classic_checkpoints(classifier, frozen: dict) -> None:
    print("2) sharded census checkpoints vs frozen snapshot ...", flush=True)
    current = checkpoint_hashes(classifier)
    if current != frozen["checkpoint_files"]:
        drifted = sorted(
            name for name in set(current) | set(frozen["checkpoint_files"])
            if current.get(name) != frozen["checkpoint_files"].get(name))
        raise SystemExit(f"FAIL: checkpoint files drifted: {drifted}")
    print(f"   OK: {len(current)} checkpoint files byte-identical")


def check_modern_experiment() -> None:
    print("3) modern_families experiment at the smoke profile ...", flush=True)
    import repro.tcp.registry as registry
    from repro.experiments.profiles import profile_by_name
    from repro.experiments.registry import ExperimentContext, get_experiment
    from repro.experiments.resources import ResourcePool

    experiment = get_experiment("modern_families")
    profile = profile_by_name("smoke")
    pool = ResourcePool(profile=profile, executor=None)
    context = ExperimentContext(profile=profile, pool=pool, executor=None)
    payload = experiment.compute(context)
    if payload["metrics"]["n_families"] != 17:
        raise SystemExit("FAIL: expected a 17-family label space, got "
                         f"{payload['metrics']['n_families']}")
    rendered = experiment.render(payload)
    for family in registry.MODERN_ALGORITHMS:
        if family not in rendered:
            raise SystemExit(f"FAIL: {family} missing from the rendered "
                             "confusion matrix")
    if "true \\ predicted" not in rendered or "Identified as" not in rendered:
        raise SystemExit("FAIL: confusion matrix or mixed census table "
                         "did not render")
    print(f"   OK: 17-family matrix and mixed census rendered "
          f"(CV accuracy {payload['metrics']['extended_cv_accuracy']:.1%})")


def check_ecn_engages() -> None:
    print("4) ECN knob: off = RENO-identical, on = diverges ...", flush=True)
    gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))

    def probe(algorithm, mark_rate):
        server = SyntheticServer(
            algorithm_name=algorithm,
            sender_config_factory=lambda mss: SenderConfig(
                mss=mss, initial_window=3))
        condition = NetworkCondition(average_rtt=0.2, rtt_std=0.0,
                                     loss_rate=0.0, ecn_mark_rate=mark_rate)
        rng = np.random.default_rng(41)
        trace = gatherer.gather_probe(server, condition, rng)
        return ([tuple(t.pre_timeout) + tuple(t.post_timeout)
                 for t in trace.traces()], rng.bit_generator.state)

    if probe("dctcp", 0.0) != probe("reno", 0.0):
        raise SystemExit("FAIL: unmarked DCTCP is not bit-identical to RENO")
    if probe("dctcp", 0.3)[0] == probe("reno", 0.3)[0]:
        raise SystemExit("FAIL: DCTCP did not react to ECN marks")
    print("   OK: mark-free DCTCP == RENO (incl. rng stream); marks engage")


def main() -> None:
    freeze = "--freeze" in sys.argv[1:]
    classifier = train_classifier()
    if freeze:
        SNAPSHOT.parent.mkdir(exist_ok=True)
        SNAPSHOT.write_text(json.dumps(classic_snapshot(classifier),
                                       indent=1, sort_keys=True) + "\n")
        print(f"froze classic census snapshot to {SNAPSHOT}")
        return
    if not SNAPSHOT.exists():
        raise SystemExit(f"missing {SNAPSHOT}; generate it on a pre-PR tree "
                         "with --freeze")
    frozen = json.loads(SNAPSHOT.read_text())
    check_classic_census(classifier, frozen)
    check_classic_checkpoints(classifier, frozen)
    check_modern_experiment()
    check_ecn_engages()
    print("all modern-families checks passed")


if __name__ == "__main__":
    main()
