"""The experiment runner: fingerprint, cache-check, compute, persist.

The runner executes a selection of registry entries against one scale
profile and one :class:`~repro.experiments.store.ArtifactStore`:

1. every selected experiment's cache fingerprint is computed
   (:func:`~repro.experiments.registry.experiment_fingerprint`);
2. experiments whose stored artifact already carries that fingerprint are
   **cache hits** and are not re-run (``--force`` overrides);
3. the remaining experiments run — independent ones (no shared resources)
   fan out over the :class:`~repro.parallel.ParallelExecutor`, while the
   resource-heavy ones run sequentially against one shared
   :class:`~repro.experiments.resources.ResourcePool` whose inner workloads
   (training-set build, census probe phase) fan out over the same executor;
4. artifacts are written in registry order, so the manifest has a single
   writer and the store's files are deterministic;
5. at :data:`CHECKED_PROFILE`, every selected experiment's paper-shape
   checks are evaluated on its stored payload, fresh or cached alike.

Payloads are fully determined by (profile, code), so the runner's backend
and worker knobs only change wall-clock time, exactly like the census.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.profiles import ScaleProfile
from repro.experiments.registry import (
    Experiment,
    ExperimentContext,
    code_fingerprint,
    experiment_fingerprint,
    select_experiments,
)
from repro.experiments.resources import ResourcePool
from repro.experiments.store import ArtifactStore, timed
from repro.parallel import ParallelExecutor

#: Run statuses reported per experiment.
STATUS_RAN = "ran"
STATUS_CACHED = "cached"

#: The profile the experiments' paper-shape checks were written for. Its
#: sample counts make the shapes stable; at ``smoke`` several are not.
CHECKED_PROFILE = "small"


@dataclass(frozen=True)
class RunResult:
    """Outcome of one experiment inside a runner invocation.

    Attributes:
        name: The experiment name.
        status: ``"ran"`` (computed this invocation) or ``"cached"``
            (the stored artifact's fingerprint already matched).
        elapsed_seconds: Compute wall-clock time (the manifest's recorded
            time for cache hits).
        entries: Number of payload entries in the artifact.
        failed_checks: Names of the experiment's checks the payload fails
            (always empty away from :data:`CHECKED_PROFILE`).
    """

    name: str
    status: str
    elapsed_seconds: float
    entries: int
    failed_checks: tuple[str, ...] = ()


def _compute_independent(task: tuple[str, ScaleProfile]) -> tuple[str, dict, float]:
    """Worker task: compute one resource-independent experiment.

    Module-level so the process backend can pickle it; the experiment is
    re-resolved from the registry inside the worker.
    """
    from repro.experiments.registry import get_experiment

    name, profile = task
    experiment = get_experiment(name)
    context = ExperimentContext(profile=profile, pool=ResourcePool(profile))
    payload, elapsed = timed(lambda: experiment.compute(context))
    return name, payload, elapsed


class ExperimentRunner:
    """Runs registry experiments with fingerprint-keyed artifact caching."""

    def __init__(self, profile: ScaleProfile, store: ArtifactStore,
                 executor: ParallelExecutor | None = None,
                 experiments: list[Experiment] | None = None):
        """Bind the runner to a profile and an artifact store.

        Args:
            profile: The scale profile every experiment runs at.
            store: The artifact store (one directory per profile).
            executor: Optional executor; independent experiments fan out
                over it, and the shared resource builds use it for their
                inner parallelism. Results are bit-identical either way.
            experiments: Explicit experiment list (tests); defaults to the
                full registry.
        """
        self.profile = profile
        self.store = store
        self.executor = executor
        self._experiments = experiments

    # ------------------------------------------------------------ selection
    def select(self, names: list[str] | None = None) -> list[Experiment]:
        """Resolve a name selection against the registry, keeping order.

        Args:
            names: Experiment names, or ``None`` for every registered
                experiment.

        Returns:
            The selected experiments in registry order.

        Raises:
            ValueError: If any name is unknown; the message lists the valid
                names.
        """
        return select_experiments(names, self._experiments)

    # ------------------------------------------------------------------ run
    def run(self, names: list[str] | None = None,
            force: bool = False) -> list[RunResult]:
        """Run the selected experiments, skipping current artifacts.

        Args:
            names: Experiment names, or ``None`` for all.
            force: Re-compute even when the stored artifact's fingerprint
                matches.

        Returns:
            One :class:`RunResult` per selected experiment, in registry
            order; at :data:`CHECKED_PROFILE` each carries the checks its
            payload failed.
        """
        selected = self.select(names)
        code = code_fingerprint()
        fingerprints = {experiment.name:
                        experiment_fingerprint(experiment, self.profile, code)
                        for experiment in selected}
        pending = [experiment for experiment in selected
                   if force or not self.store.is_current(
                       experiment.name, fingerprints[experiment.name])]
        computed = self._compute(pending)
        checked = self.profile.name == CHECKED_PROFILE
        results: list[RunResult] = []
        manifest_entries = self.store.manifest()["experiments"]
        for experiment in selected:
            name = experiment.name
            if name in computed:
                payload, elapsed = computed[name]
                self.store.write(name, fingerprints[name], payload,
                                 elapsed_seconds=elapsed)
                status, entries = STATUS_RAN, len(payload)
            else:
                entry = manifest_entries[name]
                status = STATUS_CACHED
                elapsed = float(entry.get("elapsed_seconds", 0.0))
                entries = int(entry.get("entries", 0))
            failed: tuple[str, ...] = ()
            if checked and experiment.checks:
                # The stored payload, so a cached re-run gives the verdict
                # of the run that computed it.
                failed = experiment.failed_checks(
                    self.store.load(name, fingerprints[name]))
            results.append(RunResult(name=name, status=status,
                                     elapsed_seconds=elapsed,
                                     entries=entries, failed_checks=failed))
        return results

    def _compute(self, pending: list[Experiment]) -> dict[str, tuple[dict, float]]:
        """Compute every pending experiment's payload (no writes here)."""
        computed: dict[str, tuple[dict, float]] = {}
        independent = [experiment for experiment in pending
                       if not experiment.shared_resources]
        pooled = [experiment for experiment in pending
                  if experiment.shared_resources]
        if independent:
            if self._experiments is None and len(independent) > 1:
                executor = self.executor or ParallelExecutor()
                tasks = [(experiment.name, self.profile)
                         for experiment in independent]
                for name, payload, elapsed in executor.map(
                        _compute_independent, tasks):
                    computed[name] = (payload, elapsed)
            else:
                # Explicit experiment lists (tests) and single experiments
                # are computed in-process; the fan-out buys nothing there.
                context = ExperimentContext(
                    profile=self.profile, pool=ResourcePool(self.profile),
                    executor=self.executor)
                for experiment in independent:
                    payload, elapsed = timed(
                        lambda experiment=experiment: experiment.compute(context))
                    computed[experiment.name] = (payload, elapsed)
        if pooled:
            pool = ResourcePool(self.profile, executor=self.executor)
            context = ExperimentContext(profile=self.profile, pool=pool,
                                        executor=self.executor)
            for experiment in pooled:
                payload, elapsed = timed(
                    lambda experiment=experiment: experiment.compute(context))
                computed[experiment.name] = (payload, elapsed)
        return computed

    # --------------------------------------------------------------- status
    def status(self, names: list[str] | None = None) -> list[dict]:
        """Cache state of the selected experiments (what ``status`` prints).

        Args:
            names: Experiment names, or ``None`` for all.

        Returns:
            One dict per experiment: name, state (``current`` / ``stale`` /
            ``missing``), and the manifest's entry/timing data when present.
        """
        rows = []
        manifest_entries = self.store.manifest()["experiments"]
        code = code_fingerprint()
        for experiment in self.select(names):
            fingerprint = experiment_fingerprint(experiment, self.profile, code)
            entry = manifest_entries.get(experiment.name)
            if entry is None or not self.store.artifact_path(experiment.name).exists():
                state = "missing"
            elif entry.get("fingerprint") == fingerprint:
                state = "current"
            else:
                state = "stale"
            rows.append({
                "name": experiment.name,
                "state": state,
                "entries": entry.get("entries") if entry else None,
                "elapsed_seconds": entry.get("elapsed_seconds") if entry else None,
            })
        return rows
