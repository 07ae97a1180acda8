"""The census-serving command line (``python -m repro.serve``).

Wires the serving layer end to end: load a trained classifier from a model
artifact (milliseconds — never retrains), generate the population described
by the shared settings, and drain the census through the work-stealing
orchestrator with N concurrent workers, publishing results incrementally:

* every committed shard's outcomes are appended to ``--results`` as JSONL
  lines in the checkpoint's own wire format (``{"kind": "outcome", ...}``),
  so a consumer can tail the file while the census runs;
* the checkpoint directory itself stays a normal census checkpoint —
  ``python -m repro.census status/merge`` work on it, and re-invoking serve
  on the same directory resumes it (stale leases are reclaimed);
* the final report is printed and optionally written to ``--json`` in the
  stable ``caai-census-report`` schema (:mod:`repro.serving.schema`).

Because the artifact-loaded classifier is fingerprint-identical to the one
it was saved from, the served census is byte-identical to a retrain-and-run
census over the same settings — ``benchmarks/check_serving_smoke.py`` holds
this invariant in CI.
"""

from __future__ import annotations

import argparse
import json

from repro.cli import run_handler
from repro.cli.settings import (
    POPULATION_KEYS,
    add_population_arguments,
    build_population,
    settings_from_args,
)
from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import classifier_fingerprint
from repro.parallel import BACKENDS
from repro.serving.artifact import timed_load
from repro.serving.orchestrator import CensusOrchestrator
from repro.serving.queue import DEFAULT_LEASE_TIMEOUT
from repro.serving.schema import census_report_payload

PROG = "python -m repro.serve"


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and run the serving loop.

    Args:
        argv: Argument list (defaults to ``sys.argv[1:]``).

    Returns:
        Process exit code: 0 on success, 2 on an artifact/checkpoint/usage
        error.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run_handler(_serve, args)


def _serve(args: argparse.Namespace) -> int:
    """Load the artifact, orchestrate the census, publish results."""
    classifier, seconds = timed_load(args.artifact)
    fingerprint = classifier_fingerprint(classifier)
    print(f"loaded model artifact {args.artifact} in {seconds * 1000:.1f} ms "
          f"(fingerprint {fingerprint[:16]}...)", flush=True)
    settings = settings_from_args(args, POPULATION_KEYS)
    settings.update({
        "conditions": args.conditions,
        "condition_db_size": args.condition_db_size,
        "condition_seed": args.condition_seed,
        "seed": args.seed,
        "shards": args.shards,
        "artifact": {"path": str(args.artifact), "fingerprint": fingerprint},
    })
    population = build_population(settings)
    runner = CensusRunner(classifier,
                          CensusConfig(seed=args.seed, backend=args.backend,
                                       max_workers=args.probe_workers))
    publish = _ResultPublisher(args.results)
    orchestrator = CensusOrchestrator(
        runner, population, args.checkpoint, num_shards=args.shards,
        lease_timeout=args.lease_timeout, settings=settings,
        on_shard=publish.on_shard)
    pending = orchestrator.checkpoint.pending_shards()
    print(f"serving census of {settings['servers']} servers: "
          f"{len(pending)}/{orchestrator.checkpoint.num_shards} shards "
          f"pending, {args.workers} workers, lease timeout "
          f"{args.lease_timeout:g}s ...", flush=True)
    report = orchestrator.run(workers=args.workers)
    for stats in orchestrator.worker_stats():
        extras = []
        if stats.stolen:
            extras.append(f"stole {stats.stolen}")
        if stats.died:
            extras.append("died")
        suffix = f" ({', '.join(extras)})" if extras else ""
        print(f"  {stats.worker}: completed shards {stats.completed}{suffix}")
    print(f"census complete: {len(report)} servers, "
          f"{100 * report.valid_fraction():.1f}% valid traces")
    if args.results:
        print(f"incremental results in {args.results}")
    if args.json:
        payload = census_report_payload(report, source={
            "artifact": str(args.artifact),
            "fingerprint": fingerprint,
            "checkpoint": str(args.checkpoint),
        })
        with open(args.json, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


class _ResultPublisher:
    """Appends committed shards' outcomes to a JSONL file.

    Runs in the serving process only (the orchestrator relays every commit
    from its worker processes), so appends need no lock.
    """

    def __init__(self, path: str | None):
        self._path = path
        if path:
            # Truncate up front so a re-serve doesn't append to stale data.
            open(path, "w", encoding="utf-8").close()

    def on_shard(self, shard: int, outcomes) -> None:
        """Publish one committed shard (orchestrator ``on_shard`` hook).

        Args:
            shard: The committed shard index.
            outcomes: The shard's classified outcomes, in shard order.
        """
        print(f"  shard {shard} complete ({len(outcomes)} servers)",
              flush=True)
        if not self._path:
            return
        lines = [json.dumps({"kind": "outcome", "shard": shard,
                             "outcome": outcome.to_json_dict()},
                            sort_keys=True)
                 for outcome in outcomes]
        with open(self._path, "a", encoding="utf-8") as stream:
            for line in lines:
                stream.write(line + "\n")


def _build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Serve a census from a persisted model artifact with "
                    "work-stealing workers (no retraining).")
    parser.add_argument("--artifact", required=True,
                        help="model artifact written by python -m repro.model fit")
    parser.add_argument("--checkpoint", required=True,
                        help="checkpoint directory; reused (resumed) when it "
                             "already holds a matching census")
    add_population_arguments(parser)
    parser.add_argument("--conditions", default="paper",
                        help="network-condition preset of the probed paths "
                             "(default: paper)")
    parser.add_argument("--condition-db-size", type=int, default=1000,
                        help="paths in the condition database (default: 1000)")
    parser.add_argument("--condition-seed", type=int, default=2010,
                        help="seed of the condition database draws")
    parser.add_argument("--seed", type=int, default=42,
                        help="census seed; also keys the shard assignment")
    parser.add_argument("--shards", type=int, default=8,
                        help="work-queue shard count (default: 8)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent orchestrator worker processes "
                             "(default: 2)")
    parser.add_argument("--lease-timeout", type=float,
                        default=DEFAULT_LEASE_TIMEOUT,
                        help="seconds without a heartbeat before a shard "
                             "lease is stolen (default: %(default)s)")
    parser.add_argument("--backend", default="serial", choices=BACKENDS,
                        help="probe-phase backend inside each worker "
                             "(default: serial; results are bit-identical)")
    parser.add_argument("--probe-workers", type=int, default=None,
                        help="probe-phase processes for the process backend")
    parser.add_argument("--results", default=None,
                        help="JSONL file to append each committed shard's "
                             "outcomes to while the census runs")
    parser.add_argument("--json", default=None,
                        help="write the final report here in the stable "
                             "caai-census-report schema")
    return parser
