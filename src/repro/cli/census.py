"""The checkpointed census command line (``python -m repro.census``).

Four subcommands manage a census checkpoint directory:

* ``run``    — train a classifier, generate a synthetic population, and run
  a sharded census into a fresh checkpoint. ``--stop-after-shards`` bounds
  how many shards one invocation completes (spread a census over several
  invocations, or simulate an interruption); a killed run leaves a
  resumable checkpoint either way.
* ``resume`` — rebuild population and classifier from the manifest's stored
  settings (bit-identical: everything is seeded) and run the remaining
  shards. Refuses to continue if the configuration fingerprint differs.
* ``status`` — print the manifest's progress summary.
* ``merge``  — merge the completed shards into a Table IV style report
  without re-probing anything (no classifier needed).

The walkthrough in ``docs/CENSUS.md`` shows a full
run → interrupt → resume → merge session.
"""

from __future__ import annotations

import argparse
import json

from repro.analysis.tables import format_table
from repro.cli import run_handler
from repro.cli.settings import (
    POPULATION_KEYS,
    TRAINING_KEYS,
    add_population_arguments,
    add_training_arguments,
    build_population,
    settings_from_args,
    train_classifier,
)
from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import CensusCheckpoint, CheckpointError
from repro.core.results import CensusReport
from repro.faults import FaultPlan
from repro.parallel import BACKENDS
from repro.scenarios import SCENARIO_PACKS, scenario_pack_by_name
from repro.serving.schema import census_report_payload
from repro.store import write_json_atomic

PROG = "python -m repro.census"


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to one subcommand.

    Args:
        argv: Argument list (defaults to ``sys.argv[1:]``).

    Returns:
        Process exit code: 0 on success, 1 when a run stopped with shards
        still pending (resume later), 2 on a checkpoint/usage error.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run_handler(args.handler, args)


# ----------------------------------------------------------------- commands
def _cmd_run(args: argparse.Namespace) -> int:
    """``run``: create a checkpoint and execute shards until done/stopped."""
    # Fail on a reused checkpoint directory (or bad shard count) *before*
    # spending minutes training the classifier.
    CensusCheckpoint.ensure_absent(args.checkpoint)
    if args.shards < 1:
        raise ValueError("--shards must be at least 1")
    settings = {"shards": args.shards, "seed": args.seed}
    settings.update(settings_from_args(args, POPULATION_KEYS))
    settings.update(settings_from_args(args, TRAINING_KEYS))
    # Resilience knobs are stored only when set, so a census run without
    # them writes a manifest byte-identical to earlier releases.
    if args.fault_plan is not None:
        settings["fault_plan"] = _load_fault_plan(args.fault_plan).to_json_dict()
    if args.probe_deadline is not None:
        settings["probe_deadline"] = args.probe_deadline
    if args.max_probe_attempts != 3:
        settings["max_probe_attempts"] = args.max_probe_attempts
    if args.scenario_pack is not None:
        pack = scenario_pack_by_name(args.scenario_pack)
        settings["scenario_pack"] = pack.name
        # The pack dictates the condition preset, so the stored settings
        # are self-describing and resume rebuilds the same paths.
        settings["conditions"] = pack.condition_preset
    runner = _build_runner(settings, backend=args.backend, workers=args.workers)
    population = build_population(settings)
    print(f"running census of {args.servers} servers over {args.shards} shards "
          f"into {args.checkpoint} ...", flush=True)
    report = runner.run_sharded(population, args.checkpoint,
                                num_shards=args.shards,
                                stop_after_shards=args.stop_after_shards,
                                settings=settings)
    return _finish(report, args.checkpoint, getattr(args, "json", None))


def _cmd_resume(args: argparse.Namespace) -> int:
    """``resume``: rebuild from the manifest and run the remaining shards."""
    checkpoint = CensusCheckpoint.open(args.checkpoint)
    settings = checkpoint.settings
    if not settings:
        raise CheckpointError(
            f"checkpoint {args.checkpoint} stores no settings; it was not "
            "created by this CLI",
            hint="resume it through CensusRunner.resume() with the original "
                 "configuration")
    pending = checkpoint.pending_shards()
    if not pending:
        print("all shards already complete; merging ...")
        return _finish(CensusRunner.merge_checkpoint(args.checkpoint),
                       args.checkpoint, getattr(args, "json", None))
    print(f"resuming {args.checkpoint}: shards {pending} pending "
          f"(rebuilding classifier and population from stored settings) ...",
          flush=True)
    runner = _build_runner(settings, backend=args.backend, workers=args.workers)
    population = build_population(settings)
    report = runner.resume(population, args.checkpoint,
                           stop_after_shards=args.stop_after_shards)
    return _finish(report, args.checkpoint, getattr(args, "json", None))


def _cmd_status(args: argparse.Namespace) -> int:
    """``status``: print the checkpoint's progress summary."""
    status = CensusRunner.checkpoint_status(args.checkpoint)
    done = len(status["completed_shards"])
    print(f"checkpoint:  {status['directory']}")
    print(f"seed:        {status['seed']}")
    print(f"population:  {status['population_size']} servers")
    print(f"shards:      {done}/{status['num_shards']} complete")
    if status["pending_shards"]:
        print(f"pending:     {status['pending_shards']}")
    print(f"fingerprint: {status['fingerprint'][:16]}...")
    print("state:       " + ("complete — ready to merge" if status["complete"]
                             else "incomplete — resume to continue"))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    """``merge``: aggregate completed shards into the Table IV report."""
    report = CensusRunner.merge_checkpoint(args.checkpoint)
    _print_report(report)
    if args.json:
        _write_json(report, args.json)
        print(f"\nwrote {args.json}")
    return 0


# ------------------------------------------------------------------ helpers
def _build_runner(settings: dict, backend: str, workers: int | None) -> CensusRunner:
    """Train the classifier and assemble a :class:`CensusRunner`.

    Everything that affects report content comes from ``settings`` (stored
    in the manifest); ``backend``/``workers`` are per-invocation execution
    knobs that never change the results.
    """
    print(f"training classifier ({settings['trees']} trees, "
          f"{settings['training_conditions']} conditions/pair, "
          f"'{settings['conditions']}' paths) ...", flush=True)
    server_wrapper = None
    scenario_pack = settings.get("scenario_pack")
    if scenario_pack is not None:
        pack = scenario_pack_by_name(scenario_pack)
        if pack.wraps_servers():
            # Retrain under the same adversity the census probes under.
            server_wrapper = pack.wrap_server
    classifier = train_classifier(settings, server_wrapper=server_wrapper)
    fault_plan = None
    if settings.get("fault_plan"):
        fault_plan = FaultPlan.from_json_dict(settings["fault_plan"])
    config = CensusConfig(seed=settings["seed"], backend=backend,
                          max_workers=workers,
                          fault_plan=fault_plan,
                          probe_deadline=settings.get("probe_deadline"),
                          max_probe_attempts=settings.get("max_probe_attempts", 3),
                          scenario_pack=scenario_pack)
    return CensusRunner(classifier, config)


def _load_fault_plan(path: str) -> FaultPlan:
    """Load and validate a :class:`FaultPlan` from a JSON file.

    Args:
        path: Path of a JSON file matching ``FaultPlan.to_json_dict``.

    Returns:
        The validated plan.
    """
    try:
        with open(path, encoding="utf-8") as stream:
            data = json.load(stream)
    except OSError as error:
        raise ValueError(f"cannot read fault plan {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ValueError(f"fault plan {path} is not valid JSON: {error}"
                         ) from error
    try:
        return FaultPlan.from_json_dict(data)
    except (TypeError, ValueError) as error:
        raise ValueError(f"fault plan {path} is invalid: {error}") from error


def _finish(report: CensusReport | None, checkpoint_dir: str,
            json_path: str | None) -> int:
    """Print the report (or the resume hint) after run/resume."""
    if report is None:
        status = CensusRunner.checkpoint_status(checkpoint_dir)
        done = len(status["completed_shards"])
        print(f"\nstopped with {done}/{status['num_shards']} shards complete; "
              f"continue with:\n  {PROG} resume --checkpoint {checkpoint_dir}")
        return 1
    _print_report(report)
    if json_path:
        _write_json(report, json_path)
        print(f"\nwrote {json_path}")
    return 0


def _print_report(report: CensusReport) -> None:
    """Print the Table IV style summary of a merged report."""
    print(f"\nServers probed: {len(report)}")
    print(f"Valid traces:   {len(report.valid_outcomes)} "
          f"({100 * report.valid_fraction():.1f}%)")
    if report.has_fault_accounting():
        counts = report.status_counts()
        print("Statuses:       "
              + ", ".join(f"{status}={count}"
                          for status, count in sorted(counts.items())))
        print(f"Probe retries:  {report.retry_total()}")
    rows = [[label, f"{overall:.2f}"]
            for label, _, overall in report.table_rows()]
    print(format_table(["Category", "% of valid servers"], rows,
                       title="Identified TCP algorithm mix (Table IV structure)"))
    low, high = report.reno_share_bounds()
    print(f"\nRENO share bounds: {low:.1f}% .. {high:.1f}%")
    print(f"BIC/CUBIC share:   {report.bic_cubic_share():.1f}%")
    print(f"CTCP share:        {report.ctcp_share():.1f}%")


def _write_json(report: CensusReport, path: str) -> None:
    """Dump the full report in the stable ``caai-census-report`` schema.

    The payload shape is owned by :mod:`repro.serving.schema` and shared
    with the serving endpoints, so ``--json`` files and served reports are
    interchangeable (documented in ``docs/SERVING.md``; pinned by a
    snapshot test). Written atomically, so a crash never leaves a torn
    report.
    """
    write_json_atomic(path, census_report_payload(report))


def _build_parser() -> argparse.ArgumentParser:
    """Construct the four-subcommand argument parser."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Sharded, checkpointed Internet census (Table IV) with "
                    "interrupt/resume support.")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="start a fresh sharded census into a checkpoint directory")
    _add_checkpoint_argument(run)
    add_population_arguments(run)
    run.add_argument("--shards", type=int, default=4,
                     help="number of shards (default: 4)")
    run.add_argument("--seed", type=int, default=42,
                     help="census seed; also keys the shard assignment")
    add_training_arguments(run)
    run.add_argument("--fault-plan", default=None,
                     help="JSON file with a deterministic fault plan to "
                          "inject (see docs/ROBUSTNESS.md); stored in the "
                          "manifest so resume replays the same plan")
    run.add_argument("--probe-deadline", type=float, default=None,
                     help="per-probe budget in simulated seconds; a probe "
                          "past it is recorded as probe_timeout")
    run.add_argument("--max-probe-attempts", type=int, default=3,
                     help="probe attempts per server before a transient "
                          "fault is recorded as a failure (default: 3)")
    run.add_argument("--scenario-pack", default=None,
                     choices=sorted(SCENARIO_PACKS),
                     help="adversarial scenario pack to probe (and train) "
                          "under (see docs/SCENARIOS.md); overrides "
                          "--conditions with the pack's preset and is "
                          "stored in the manifest for resume")
    _add_execution_arguments(run)
    run.set_defaults(handler=_cmd_run)

    resume = commands.add_parser(
        "resume", help="continue an interrupted census from its checkpoint")
    _add_checkpoint_argument(resume)
    _add_execution_arguments(resume)
    resume.set_defaults(handler=_cmd_resume)

    status = commands.add_parser(
        "status", help="show shard progress of a checkpoint")
    _add_checkpoint_argument(status)
    status.set_defaults(handler=_cmd_status)

    merge = commands.add_parser(
        "merge", help="merge a completed checkpoint into the Table IV report")
    _add_checkpoint_argument(merge)
    merge.add_argument("--json", default=None,
                       help="also write the full report as JSON to this path")
    merge.set_defaults(handler=_cmd_merge)
    return parser


def _add_checkpoint_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", required=True,
                        help="checkpoint directory (manifest + shard files)")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="serial", choices=BACKENDS,
                        help="probe-phase execution backend (default: serial; "
                             "results are bit-identical either way)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the process backend")
    parser.add_argument("--stop-after-shards", type=int, default=None,
                        help="stop after completing this many shards in this "
                             "invocation (checkpoint stays resumable)")
    parser.add_argument("--json", default=None,
                        help="when the census completes, also write the full "
                             "report as JSON to this path")
