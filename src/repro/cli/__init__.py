"""Command-line entry points.

Each submodule implements one console tool: :mod:`repro.cli.census` backs
``python -m repro.census`` (sharded, checkpointed census runs) and
:mod:`repro.cli.report` backs ``python -m repro.report`` (the experiment
registry and the paper-reproduction report); :mod:`repro.cli.model` and
:mod:`repro.cli.serve` back ``repro.model`` and ``repro.serve``.
"""

from __future__ import annotations

import sys

from repro.store import StoreError


def run_handler(handler, args) -> int:
    """Run ``handler(args)``, the one error path of every CLI.

    A :class:`~repro.store.StoreError` or ``ValueError`` prints ``error:``
    and, when it carries one, ``hint:`` lines on stderr.

    Returns:
        The handler's exit code, or 2 on a store or usage error.
    """
    try:
        return handler(args)
    except (StoreError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        hint = getattr(error, "hint", None)
        if hint:
            print(f"hint: {hint}", file=sys.stderr)
        return 2
