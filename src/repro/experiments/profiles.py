"""Scale profiles of the experiment registry.

Every paper experiment can run at three sizes:

* ``smoke`` -- a seconds-scale configuration for CI and examples; shapes and
  qualitative conclusions hold, individual percentages are noisy.
* ``small`` -- about two minutes for the whole registry; percentages are
  stable because every server and condition is an independent draw, so the
  experiments' paper-shape checks are written for (and evaluated at) this
  profile.
* ``paper`` -- the paper's sample counts (5600 training vectors, a census of
  63124 servers).

A :class:`ScaleProfile` carries **everything that determines experiment
content**: the sample counts *and* the seeds of every shared resource. Two
runs with equal profiles produce bit-identical artifacts; the profile is
therefore part of every experiment's cache fingerprint
(:func:`repro.experiments.registry.experiment_fingerprint`).

The ``small``/``medium``/``paper`` sample counts and all seeds predate the
registry; keeping them keeps every artifact comparable with earlier runs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScaleProfile:
    """Workload sizes and resource seeds for one experiment scale.

    Attributes:
        name: Profile name (``smoke`` / ``small`` / ``medium`` / ``paper``).
        training_conditions_per_pair: Emulated network conditions per
            (algorithm, ``w_timeout``) training pair.
        census_size: Number of servers in the synthetic census population.
        condition_database_size: Paths in the measured-condition database.
        forest_trees: Random-forest size of the census classifier.
        cross_validation_folds: Folds used by the validation experiments.
        condition_seed: Seed of the condition-database draws.
        training_seed: Seed of the training-set builder.
        forest_seed: Seed of the census classifier's forest.
        population_seed: Seed of the synthetic server population.
        census_seed: Seed of the census probe streams.
    """

    name: str
    training_conditions_per_pair: int
    census_size: int
    condition_database_size: int
    forest_trees: int
    cross_validation_folds: int
    condition_seed: int = 2010
    training_seed: int = 7
    forest_seed: int = 3
    population_seed: int = 2011
    census_seed: int = 99


#: Every named profile. ``small``/``medium``/``paper`` predate the registry;
#: ``smoke`` is the CI-sized newcomer.
PROFILES: dict[str, ScaleProfile] = {
    "smoke": ScaleProfile(name="smoke", training_conditions_per_pair=2,
                          census_size=40, condition_database_size=300,
                          forest_trees=20, cross_validation_folds=3),
    "small": ScaleProfile(name="small", training_conditions_per_pair=6,
                          census_size=250, condition_database_size=1000,
                          forest_trees=60, cross_validation_folds=5),
    "medium": ScaleProfile(name="medium", training_conditions_per_pair=25,
                           census_size=1500, condition_database_size=3000,
                           forest_trees=80, cross_validation_folds=10),
    "paper": ScaleProfile(name="paper", training_conditions_per_pair=100,
                          census_size=63124, condition_database_size=5000,
                          forest_trees=80, cross_validation_folds=10),
}

#: The profile ``python -m repro.report`` uses when ``--profile`` is omitted
#: (seconds-scale, so the zero-flag invocation always finishes quickly).
DEFAULT_PROFILE = "smoke"


def profile_by_name(name: str) -> ScaleProfile:
    """Look up a scale profile by name.

    Args:
        name: One of ``smoke``, ``small``, ``medium``, ``paper``.

    Returns:
        The matching :class:`ScaleProfile`.

    Raises:
        ValueError: If the name is unknown; the message lists the valid
            profile names.
    """
    try:
        return PROFILES[name]
    except KeyError:
        valid = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown scale profile {name!r}; "
                         f"valid profiles: {valid}") from None
