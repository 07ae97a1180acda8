"""The experiment registry: reproduce the paper as cached artifacts.

One :class:`~repro.experiments.registry.Experiment` per paper figure/table,
executed by the :class:`~repro.experiments.runner.ExperimentRunner` into a
fingerprinted JSONL artifact cache
(:class:`~repro.experiments.store.ArtifactStore`), checked against the
paper's shapes at the ``small`` profile, and rendered into
``docs/RESULTS.md`` by :func:`~repro.experiments.render.render_markdown`.
``python -m repro.report`` is the one command-line front end.
"""

from repro.experiments.profiles import (
    DEFAULT_PROFILE,
    PROFILES,
    ScaleProfile,
    profile_by_name,
)
from repro.experiments.registry import (
    Experiment,
    ExperimentContext,
    all_experiments,
    experiment_fingerprint,
    experiment_names,
    get_experiment,
)
from repro.experiments.render import render_markdown, render_to_file
from repro.experiments.resources import ResourcePool
from repro.experiments.runner import ExperimentRunner, RunResult
from repro.experiments.store import ArtifactError, ArtifactStore

__all__ = [
    "ArtifactError",
    "ArtifactStore",
    "DEFAULT_PROFILE",
    "Experiment",
    "ExperimentContext",
    "ExperimentRunner",
    "PROFILES",
    "ResourcePool",
    "RunResult",
    "ScaleProfile",
    "all_experiments",
    "experiment_fingerprint",
    "experiment_names",
    "get_experiment",
    "profile_by_name",
    "render_markdown",
    "render_to_file",
]
