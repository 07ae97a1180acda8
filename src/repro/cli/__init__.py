"""Command-line entry points.

Each submodule implements one console tool: :mod:`repro.cli.census` backs
``python -m repro.census`` (sharded, checkpointed census runs, trained or
served from a model artifact), :mod:`repro.cli.report` backs
``python -m repro.report`` (the experiment registry and the
paper-reproduction report) and :mod:`repro.cli.model` backs
``python -m repro.model`` (model artifacts).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.store import StoreError


def run_handler(handler, args) -> int:
    """Run ``handler(args)``, the one error path of every CLI.

    A :class:`~repro.store.StoreError`, ``ValueError`` or ``OSError`` (an
    output path that cannot be written, say) prints ``error:`` and, when it
    carries one, ``hint:`` lines on stderr.

    Returns:
        The handler's exit code, or 2 on a store, usage or file error.
    """
    try:
        return handler(args)
    except (StoreError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        hint = getattr(error, "hint", None)
        if hint:
            print(f"hint: {hint}", file=sys.stderr)
        return 2


def require_parent_directories(*paths: str | None) -> None:
    """Fail fast, before any work, when an output file's directory is missing.

    Raises:
        ValueError: Naming the first such path (``None`` paths are skipped).
    """
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: directory "
                             f"{Path(path).parent} does not exist")
