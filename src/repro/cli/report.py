"""The paper-reproduction command line (``python -m repro.report``).

Four subcommands drive the experiment registry:

* ``list``   — show every registered experiment (name, kind, shared
  resources, title).
* ``run``    — execute experiments at a scale profile into the artifact
  cache. Re-running is a no-op for every experiment whose stored artifact's
  fingerprint (profile + experiment config + code) still matches; ``--force``
  recomputes anyway. At the ``small`` profile it also evaluates every
  experiment's paper-shape checks, prints each failure and exits 1.
* ``render`` — assemble the cached artifacts into ``docs/RESULTS.md``
  (deterministic: rendering twice from the same artifacts is byte-identical).
* ``status`` — show the cache state per experiment (current / stale /
  missing).

The walkthrough in ``docs/EXPERIMENTS.md`` shows a full
run → render → cache-hit session; ``examples/reproduce_paper.py`` scripts
the same flow.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis.tables import format_table
from repro.cli import require_parent_directories, run_handler
from repro.experiments.profiles import DEFAULT_PROFILE, PROFILES, profile_by_name
from repro.experiments.registry import all_experiments
from repro.experiments.render import render_to_file
from repro.experiments.runner import CHECKED_PROFILE, ExperimentRunner
from repro.experiments.store import ArtifactStore
from repro.parallel import BACKENDS, ParallelExecutor
from repro.store import write_json_atomic

PROG = "python -m repro.report"

#: Default base directory of the artifact cache; one subdirectory per
#: profile is created beneath it.
DEFAULT_ARTIFACTS_DIR = "artifacts"

#: Default destination of the rendered report.
DEFAULT_OUTPUT = "docs/RESULTS.md"


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to one subcommand.

    Args:
        argv: Argument list (defaults to ``sys.argv[1:]``).

    Returns:
        Process exit code: 0 on success, 1 when ``run`` finds a failed
        paper-shape check, 2 on an artifact/usage error.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run_handler(args.handler, args)


# ----------------------------------------------------------------- commands
def _cmd_list(args: argparse.Namespace) -> int:
    """``list``: print the registry contents."""
    rows = []
    for experiment in all_experiments():
        rows.append([experiment.name, experiment.kind,
                     ", ".join(experiment.shared_resources) or "-",
                     experiment.title])
    print(format_table(["Name", "Kind", "Shared resources", "Title"], rows,
                       title=f"Registered experiments ({len(rows)})"))
    print(f"\nprofiles: {', '.join(PROFILES)} (default: {DEFAULT_PROFILE})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """``run``: execute the selected experiments into the artifact cache."""
    require_parent_directories(args.json)
    runner = _build_runner(args)
    names = _selection(args)
    selected = runner.select(names)
    print(f"running {len(selected)} experiment(s) at the "
          f"'{args.profile}' profile into {runner.store.directory} ...",
          flush=True)
    results = runner.run(names, force=args.force)
    rows = [[result.name, result.status, f"{result.elapsed_seconds:.2f}s",
             str(result.entries)] for result in results]
    print(format_table(["Experiment", "Status", "Elapsed", "Entries"], rows))
    ran = sum(1 for result in results if result.status == "ran")
    cached = len(results) - ran
    print(f"\n{ran} ran, {cached} cached "
          f"({'all artifacts current' if ran == 0 else 'cache updated'})")
    failures = [f"{result.name}: {check}" for result in results
                for check in result.failed_checks]
    if args.profile == CHECKED_PROFILE:
        total = sum(len(experiment.checks) for experiment in selected)
        print(f"paper-shape checks: {total - len(failures)} of {total} passed")
        for failure in failures:
            print(f"FAILED CHECK {failure}")
    else:
        print(f"paper-shape checks: not evaluated (they run at the "
              f"'{CHECKED_PROFILE}' profile)")
    if args.json:
        write_json_atomic(args.json, {
            "profile": args.profile,
            "artifacts": str(runner.store.directory),
            "results": [{"name": result.name, "status": result.status,
                         "elapsed_seconds": result.elapsed_seconds,
                         "entries": result.entries,
                         "failed_checks": list(result.failed_checks)}
                        for result in results],
        })
        print(f"wrote {args.json}")
    return 1 if failures else 0


def _cmd_render(args: argparse.Namespace) -> int:
    """``render``: assemble cached artifacts into the Markdown report."""
    profile = profile_by_name(args.profile)
    store = _store(args, profile.name)
    output = render_to_file(store, profile, args.output,
                            names=_selection(args))
    print(f"wrote {output}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """``status``: print the cache state per experiment."""
    runner = _build_runner(args)
    rows = runner.status(_selection(args))
    if args.json:
        print(json.dumps({"profile": args.profile,
                          "artifacts": str(runner.store.directory),
                          "experiments": rows}, indent=2, sort_keys=True))
        return 0
    table_rows = []
    for row in rows:
        elapsed = (f"{row['elapsed_seconds']:.2f}s"
                   if row["elapsed_seconds"] is not None else "-")
        entries = str(row["entries"]) if row["entries"] is not None else "-"
        table_rows.append([row["name"], row["state"], elapsed, entries])
    print(format_table(["Experiment", "State", "Elapsed", "Entries"],
                       table_rows,
                       title=f"Artifact cache at {runner.store.directory} "
                             f"(profile '{args.profile}')"))
    missing = sum(1 for row in rows if row["state"] != "current")
    print("\nall artifacts current — render away" if missing == 0 else
          f"\n{missing} experiment(s) need a run: {PROG} run --profile "
          f"{args.profile}")
    return 0


# ------------------------------------------------------------------ helpers
def _selection(args: argparse.Namespace) -> list[str] | None:
    """The ``--only`` selection as a name list (``None`` = everything)."""
    if not getattr(args, "only", None):
        return None
    return [name.strip() for name in args.only.split(",") if name.strip()]


def _store(args: argparse.Namespace, profile_name: str) -> ArtifactStore:
    """The artifact store of one profile under the ``--artifacts`` base."""
    return ArtifactStore(Path(args.artifacts) / profile_name, profile_name)


def _build_runner(args: argparse.Namespace) -> ExperimentRunner:
    """Assemble the runner from the parsed profile/backend arguments."""
    profile = profile_by_name(args.profile)
    executor = None
    backend = getattr(args, "backend", None)
    if backend:
        workers = getattr(args, "workers", None)
        executor = ParallelExecutor(backend=backend, max_workers=workers)
    return ExperimentRunner(profile, _store(args, profile.name),
                            executor=executor)


def _build_parser() -> argparse.ArgumentParser:
    """Construct the four-subcommand argument parser."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Reproduce the paper's figures and tables through the "
                    "experiment registry, with fingerprinted artifact "
                    "caching and a Markdown report renderer.")
    commands = parser.add_subparsers(dest="command", required=True)

    listing = commands.add_parser(
        "list", help="show every registered experiment")
    listing.set_defaults(handler=_cmd_list)

    run = commands.add_parser(
        "run", help="execute experiments into the artifact cache")
    _add_common_arguments(run)
    run.add_argument("--force", action="store_true",
                     help="recompute even when the cached artifact's "
                          "fingerprint matches")
    run.add_argument("--backend", default=None, choices=BACKENDS,
                     help="execution backend for the experiment fan-out and "
                          "the heavy inner workloads (default: serial; "
                          "results are bit-identical either way)")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes for the process backend")
    run.add_argument("--json", default=None,
                     help="also write the per-experiment run summary as "
                          "JSON to this path")
    run.set_defaults(handler=_cmd_run)

    render = commands.add_parser(
        "render", help="assemble cached artifacts into docs/RESULTS.md")
    _add_common_arguments(render)
    render.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"destination Markdown file (default: "
                             f"{DEFAULT_OUTPUT})")
    render.set_defaults(handler=_cmd_render)

    status = commands.add_parser(
        "status", help="show the artifact-cache state per experiment")
    _add_common_arguments(status)
    status.add_argument("--json", action="store_true",
                        help="print the status as JSON instead of a table")
    status.set_defaults(handler=_cmd_status)
    return parser


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", default=DEFAULT_PROFILE,
                        choices=sorted(PROFILES),
                        help=f"scale profile (default: {DEFAULT_PROFILE})")
    parser.add_argument("--only", default=None,
                        help="comma-separated experiment names (default: "
                             "every registered experiment)")
    parser.add_argument("--artifacts", default=DEFAULT_ARTIFACTS_DIR,
                        help="base artifact directory; one subdirectory per "
                             f"profile (default: {DEFAULT_ARTIFACTS_DIR})")
