"""The model-artifact command line (``python -m repro.model``).

Three subcommands manage persistable trained-model artifacts
(:mod:`repro.serving.artifact`):

* ``fit``     — train a classifier from the shared training settings
  (:mod:`repro.cli.settings`) and save it as a versioned artifact file;
  ``save`` is accepted as an alias. The training settings are stored in the
  artifact's metadata, so an artifact is self-describing.
* ``load``    — load an artifact (timed), verifying magic, version,
  checksum and fingerprint; prints the load time and fingerprint. This is
  the cold-start path ``python -m repro.census run --artifact`` takes —
  milliseconds, never a retrain.
* ``inspect`` — print the artifact's header summary (classes, tree/node
  counts, payload size, fingerprint, metadata) without reconstructing the
  forest.

The full lifecycle is documented in ``docs/SERVING.md``.
"""

from __future__ import annotations

import argparse
import json

from repro.cli import run_handler
from repro.cli.settings import (
    TRAINING_KEYS,
    add_training_arguments,
    settings_from_args,
    train_classifier,
)
from repro.serving.artifact import (
    inspect_model,
    save_model,
    timed_load,
)

PROG = "python -m repro.model"


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to one subcommand.

    Args:
        argv: Argument list (defaults to ``sys.argv[1:]``).

    Returns:
        Process exit code: 0 on success, 2 on an artifact/usage error.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run_handler(args.handler, args)


# ----------------------------------------------------------------- commands
def _cmd_fit(args: argparse.Namespace) -> int:
    """``fit``/``save``: train a classifier and persist it as an artifact."""
    settings = settings_from_args(args, TRAINING_KEYS)
    print(f"training classifier ({settings['trees']} trees, "
          f"{settings['training_conditions']} conditions/pair, "
          f"'{settings['conditions']}' paths) ...", flush=True)
    classifier = train_classifier(settings)
    header = save_model(classifier, args.output,
                        metadata={"training_settings": settings})
    print(f"wrote {args.output} ({header['payload_nbytes']} payload bytes, "
          f"{len(header['classes'])} classes, "
          f"{header['classifier']['n_trees']} trees)")
    print(f"fingerprint: {header['fingerprint']}")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    """``load``: load an artifact end to end and report the cold-start time."""
    classifier, seconds = timed_load(args.artifact)
    print(f"loaded {args.artifact} in {seconds * 1000:.1f} ms")
    print(f"classes: {', '.join(classifier.classes())}")
    print(f"trees:   {classifier.forest.n_trees}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    """``inspect``: print the artifact's header summary as JSON."""
    print(json.dumps(inspect_model(args.artifact), indent=2, sort_keys=True))
    return 0


# ------------------------------------------------------------------- parser
def _build_parser() -> argparse.ArgumentParser:
    """Construct the subcommand parser."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Train, persist and inspect CAAI model artifacts "
                    "(serving loads these instead of retraining).")
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("fit", "save"):
        fit = commands.add_parser(
            name, help="train a classifier and save it as a model artifact"
                       + (" (alias of fit)" if name == "save" else ""))
        fit.add_argument("--output", required=True,
                         help="artifact file to write (e.g. model.caai)")
        add_training_arguments(fit)
        fit.set_defaults(handler=_cmd_fit)

    load = commands.add_parser(
        "load", help="load an artifact (timed) and print its summary")
    load.add_argument("--artifact", required=True,
                      help="artifact file written by fit")
    load.set_defaults(handler=_cmd_load)

    inspect = commands.add_parser(
        "inspect", help="print an artifact's header without loading the forest")
    inspect.add_argument("--artifact", required=True,
                         help="artifact file written by fit")
    inspect.set_defaults(handler=_cmd_inspect)
    return parser
