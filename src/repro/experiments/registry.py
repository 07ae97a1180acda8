"""The experiment registry: one entry per paper figure/table.

An :class:`Experiment` declares everything needed to reproduce one figure or
table of the paper: a compute function (producing a JSON-serialisable
payload), a render function (turning the payload into a Markdown section),
the paper's published headline numbers (for the deltas the renderer prints),
the paper-shape checks its payload must pass, and which shared resources it
needs.

Experiments are cached by **fingerprint**
(:func:`experiment_fingerprint`): a hash of the scale profile, the
experiment's declared config, every file of the ``repro`` package and the
NumPy version. The runner skips a re-run whose fingerprint matches the
stored artifact, and a change to the profile, the config *or any module*
invalidates the cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy

from repro.experiments.profiles import ScaleProfile
from repro.experiments.resources import RESOURCE_NAMES, ResourcePool
from repro.parallel import ParallelExecutor
from repro.store import digest, fingerprint

#: Fingerprint format version; bumped on incompatible payload-schema changes
#: and on any change to what the fingerprint covers.
FINGERPRINT_FORMAT_VERSION = 4

#: Root of the ``repro`` package, whose every file the code fingerprint
#: covers.
SOURCE_ROOT = Path(__file__).resolve().parents[1]


@dataclass
class ExperimentContext:
    """Everything an experiment's compute function may draw on.

    Attributes:
        profile: The scale profile of the run.
        pool: Shared-resource pool (training set, census report, ...).
        executor: Optional executor the experiment's own fan-out may use.
    """

    profile: ScaleProfile
    pool: ResourcePool
    executor: ParallelExecutor | None = None


@dataclass(frozen=True)
class Experiment:
    """One reproducible figure/table of the paper.

    Attributes:
        name: Stable registry key (``fig3``, ``table4``, ...).
        title: Human-readable heading used in ``docs/RESULTS.md``.
        kind: ``"figure"``, ``"table"`` or ``"section"``.
        description: One-paragraph summary of what is reproduced.
        compute: ``compute(context) -> payload`` returning a
            JSON-serialisable dict; a ``"metrics"`` sub-dict holds the
            headline numbers compared against :attr:`paper_values`.
        render: ``render(payload) -> str`` returning the Markdown body.
        paper_values: The paper's published numbers, keyed like the
            payload's ``metrics`` (the renderer prints the deltas).
        shared_resources: Names of the :class:`ResourcePool` resources the
            experiment uses (empty = independent, safe to fan out).
        config: Extra experiment-specific knobs; part of the fingerprint.
        checks: Named paper-shape predicates, ``check(payload) -> bool``;
            the runner evaluates them at the profile they were written for
            (:data:`repro.experiments.runner.CHECKED_PROFILE`).
    """

    name: str
    title: str
    kind: str
    description: str
    compute: Callable[[ExperimentContext], dict]
    render: Callable[[dict], str]
    paper_values: Mapping[str, float] = field(default_factory=dict)
    shared_resources: tuple[str, ...] = ()
    config: Mapping[str, object] = field(default_factory=dict)
    checks: Mapping[str, Callable[[dict], bool]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("figure", "table", "section"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        unknown = set(self.shared_resources) - set(RESOURCE_NAMES)
        if unknown:
            raise ValueError(f"unknown shared resources {sorted(unknown)}; "
                             f"valid names: {RESOURCE_NAMES}")

    def failed_checks(self, payload: dict) -> tuple[str, ...]:
        """The names of the checks ``payload`` fails, in declaration order.

        Args:
            payload: A payload of this experiment's ``compute``.

        Returns:
            The failing check names (empty when every check holds).
        """
        return tuple(name for name, check in self.checks.items()
                     if not check(payload))


_REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry (definition-module plumbing).

    Args:
        experiment: The experiment to register.

    Returns:
        The experiment, for assignment-style registration.

    Raises:
        ValueError: If the name is already registered.
    """
    if experiment.name in _REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} is already registered")
    _REGISTRY[experiment.name] = experiment
    return experiment


def _ensure_definitions_loaded() -> None:
    """Import the definition module exactly once (it registers on import)."""
    if not _REGISTRY:
        import repro.experiments.definitions  # noqa: F401  (registers entries)


def all_experiments() -> list[Experiment]:
    """Every registered experiment, in registration (paper) order.

    Returns:
        The experiments in the order their definitions registered them,
        which follows the paper's figure/table numbering.
    """
    _ensure_definitions_loaded()
    return list(_REGISTRY.values())


def experiment_names() -> list[str]:
    """The registered experiment names, in registration order.

    Returns:
        One name per registry entry.
    """
    return [experiment.name for experiment in all_experiments()]


def select_experiments(names: list[str] | None,
                       available: list[Experiment] | None = None) -> list[Experiment]:
    """Resolve a name selection, preserving registry order.

    The one selection routine shared by the runner and the renderer, so
    unknown-name handling cannot drift between the two.

    Args:
        names: Experiment names, or ``None`` for everything in
            ``available``.
        available: The experiments to select from (tests pass explicit
            lists); defaults to the full registry.

    Returns:
        The selected experiments in ``available`` order.

    Raises:
        ValueError: If any name is unknown; the message lists the valid
            names.
    """
    if available is None:
        available = all_experiments()
    if names is None:
        return list(available)
    by_name = {experiment.name: experiment for experiment in available}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(f"unknown experiment(s) {', '.join(unknown)}; "
                         f"registered experiments: {', '.join(by_name)}")
    wanted = set(names)
    return [experiment for experiment in available if experiment.name in wanted]


def get_experiment(name: str) -> Experiment:
    """Look up one experiment by name.

    Args:
        name: The registry key (``fig3``, ``table4``, ...).

    Returns:
        The matching :class:`Experiment`.

    Raises:
        ValueError: If the name is unknown; the message lists every
            registered experiment.
    """
    _ensure_definitions_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(experiment_names())
        raise ValueError(f"unknown experiment {name!r}; "
                         f"registered experiments: {valid}") from None


# --------------------------------------------------------------- fingerprint
def code_fingerprint() -> str:
    """Hash every file of the ``repro`` package, sources and data alike.

    Every file under :data:`SOURCE_ROOT` (``__pycache__`` skipped) enters
    by its relative path, in sorted order, followed by its bytes, so
    editing any module — a congestion-control law, the gatherer, the
    forest, an experiment — or a data file such as a scenario trace
    invalidates every cached artifact. Deliberately coarse: a false re-run
    is cheap, a stale artifact is not. The files are read afresh on every
    call (no cache), so an edit between two calls in one process is seen;
    a caller fingerprinting many experiments at once hashes them once and
    passes the digest to :func:`experiment_fingerprint`.

    Returns:
        The hex digest of the package's files.
    """
    parts = []
    for path in sorted(SOURCE_ROOT.rglob("*")):
        relative = path.relative_to(SOURCE_ROOT)
        if "__pycache__" in relative.parts or not path.is_file():
            continue
        data = path.read_bytes()
        parts += [f"{relative.as_posix()}\0{len(data)}\0", data]
    return digest(*parts)


def experiment_fingerprint(experiment: Experiment, profile: ScaleProfile,
                           code: str | None = None) -> str:
    """Hash everything that determines an experiment's payload.

    Args:
        experiment: The experiment about to run.
        profile: The scale profile it runs at.
        code: The package's source digest from :func:`code_fingerprint`,
            hashed here when omitted; the runner and the renderer compute
            it once per call and pass it for every experiment.

    Returns:
        A hex digest over the profile, the experiment's name and config,
        every file of the ``repro`` package (:func:`code_fingerprint`) and
        the running NumPy version, whose generators draw every sample; the
        runner treats a matching stored artifact as a cache hit. Equal
        fingerprints mean equal payloads as long as nothing else outside
        the package moved: the interpreter is not hashed.
    """
    payload = {
        "format": FINGERPRINT_FORMAT_VERSION,
        "experiment": experiment.name,
        "profile": dataclasses.asdict(profile),
        "config": dict(experiment.config),
        "code": code_fingerprint() if code is None else code,
        "numpy": numpy.__version__,
    }
    return fingerprint(payload)
