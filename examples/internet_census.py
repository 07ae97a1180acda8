"""Internet census: reproduce the paper's measurement campaign in miniature.

Generates a synthetic Internet of Web servers (geography, software, deployed
TCP algorithms, page sizes, pipelining limits, quirks), probes every server
with CAAI, and prints the Table IV style deployment report -- including how
the identified mix compares with the ground truth, which only a simulation
can know.

Run with:  python examples/internet_census.py [number_of_servers] [checkpoint_dir]

With a ``checkpoint_dir`` the census runs **sharded and checkpointed**
(4 shards, drained by two work-stealing worker processes): interrupt it at
any point and re-run the same command -- it resumes from the checkpoint
and the merged report is bit-identical to the uninterrupted run. The
``python -m repro.census`` CLI wraps the same machinery with
run/resume/status/merge subcommands (see docs/CENSUS.md).
"""

from __future__ import annotations

import sys

from repro.analysis.tables import format_table
from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.training import TrainingSetBuilder
from repro.web.population import PopulationConfig, ServerPopulation


def main(size: int = 200, checkpoint_dir: str | None = None) -> None:
    print("Training the CAAI classifier...")
    training = TrainingSetBuilder(conditions_per_pair=5, seed=3).build_dataset()
    classifier = CaaiClassifier(n_trees=60, seed=4).train(training)

    print(f"Generating a synthetic Internet of {size} Web servers...")
    population = ServerPopulation(PopulationConfig(size=size, seed=2011))
    population.generate()

    runner = CensusRunner(classifier, CensusConfig(seed=1))
    if checkpoint_dir is None:
        print("Running the census (crawl, MSS negotiation, probing, classification)...")
        report = runner.run(population)
    else:
        from repro.serving.orchestrator import CensusOrchestrator

        # Creates the checkpoint, or attaches to it and drains what is left.
        print(f"Running a 4-shard checkpointed census in {checkpoint_dir}...")
        orchestrator = CensusOrchestrator(runner, population, checkpoint_dir,
                                          num_shards=4)
        report = orchestrator.run(workers=2)

    print(f"\nServers probed: {len(report)}")
    print(f"Valid traces:   {len(report.valid_outcomes)} "
          f"({100 * report.valid_fraction():.1f}%)")
    print(f"Invalid reasons: "
          f"{ {k: round(100 * v, 1) for k, v in report.invalid_reason_shares().items()} }\n")

    truth = population.algorithm_shares()
    rows = []
    for label, _, overall in report.table_rows():
        rows.append([label, f"{overall:.2f}"])
    print(format_table(["Category", "% of valid servers"], rows,
                       title="Identified TCP algorithm mix (Table IV structure)"))

    print("\nGround-truth deployment (what the population actually runs):")
    for name, share in sorted(truth.items(), key=lambda kv: -kv[1]):
        print(f"  {name:10s} {100 * share:5.1f}%")

    low, high = report.reno_share_bounds()
    print(f"\nHeadline conclusions:")
    print(f"  RENO share bounds:    {low:.1f}% .. {high:.1f}%")
    print(f"  BIC/CUBIC share:      {report.bic_cubic_share():.1f}%")
    print(f"  CTCP share:           {report.ctcp_share():.1f}%")
    print(f"  agreement with truth: {100 * report.accuracy_against_ground_truth():.1f}%")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200,
         sys.argv[2] if len(sys.argv) > 2 else None)
