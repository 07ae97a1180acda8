"""``python -m repro.census`` — the checkpointed census command line.

This package only hosts the module entry point; the implementation lives in
:mod:`repro.cli.census`, the census engine itself in
:mod:`repro.core.census` / :mod:`repro.core.checkpoint` and its sharded
driver in :mod:`repro.serving.orchestrator`.
"""

from repro.cli.census import main

__all__ = ["main"]
