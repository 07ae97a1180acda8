"""Shared expensive resources of the experiment registry.

Several experiments need the same expensive artefacts — the measured
condition database, the training set, the trained census classifier, the
synthetic server population and the census report. A :class:`ResourcePool`
builds each of them at most once per (profile, process) and hands them to
every experiment that asks.

Construction is fully determined by the :class:`~repro.experiments.profiles.ScaleProfile`
(sizes *and* seeds), so two pools with equal profiles produce bit-identical
resources regardless of executor backend or how many experiments share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.results import CensusReport
from repro.core.training import TrainingSetBuilder
from repro.experiments.profiles import ScaleProfile
from repro.ml.dataset import LabeledDataset
from repro.net.conditions import ConditionDatabase, default_condition_database
from repro.parallel import ParallelExecutor
from repro.web.population import PopulationConfig, ServerPopulation

#: Names an experiment may declare in ``Experiment.shared_resources``.
RESOURCE_NAMES = ("condition_database", "training_set", "classifier",
                  "population", "census_report")


@dataclass
class ResourcePool:
    """Lazily built, cached shared resources for one scale profile.

    Attributes:
        profile: The scale profile that determines every resource.
        executor: Optional :class:`~repro.parallel.ParallelExecutor` the
            embarrassingly parallel builds (training set, census probe
            phase) fan out over; results are bit-identical across backends,
            so this only changes wall-clock time.
    """

    profile: ScaleProfile
    executor: ParallelExecutor | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def condition_database(self) -> ConditionDatabase:
        """The measured network-condition database (Figs. 4, 10, 11).

        Returns:
            The profile-sized database, built once per pool.
        """
        if "condition_database" not in self._cache:
            self._cache["condition_database"] = default_condition_database(
                size=self.profile.condition_database_size,
                seed=self.profile.condition_seed)
        return self._cache["condition_database"]

    def training_set(self) -> LabeledDataset:
        """The labelled CAAI training set (Section VII-A).

        Returns:
            The dataset built on the simulated testbed, once per pool.
        """
        if "training_set" not in self._cache:
            builder = TrainingSetBuilder(
                conditions_per_pair=self.profile.training_conditions_per_pair,
                seed=self.profile.training_seed,
                condition_database=self.condition_database())
            self._cache["training_set"] = builder.build_dataset(
                executor=self.executor)
        return self._cache["training_set"]

    def classifier(self) -> CaaiClassifier:
        """The census classifier, trained on :meth:`training_set`.

        Returns:
            The trained :class:`CaaiClassifier`, once per pool.
        """
        if "classifier" not in self._cache:
            classifier = CaaiClassifier(n_trees=self.profile.forest_trees,
                                        seed=self.profile.forest_seed)
            classifier.train(self.training_set())
            self._cache["classifier"] = classifier
        return self._cache["classifier"]

    def population(self) -> ServerPopulation:
        """The synthetic census population (Section VII-B).

        Returns:
            The generated :class:`ServerPopulation`, once per pool.
        """
        if "population" not in self._cache:
            population = ServerPopulation(
                PopulationConfig(size=self.profile.census_size,
                                 seed=self.profile.population_seed),
                condition_database=self.condition_database())
            population.generate()
            self._cache["population"] = population
        return self._cache["population"]

    def census_report(self) -> CensusReport:
        """The census over :meth:`population` (Table IV).

        Returns:
            The aggregated :class:`CensusReport`, once per pool.
        """
        if "census_report" not in self._cache:
            runner = CensusRunner(self.classifier(),
                                  CensusConfig(seed=self.profile.census_seed),
                                  executor=self.executor)
            self._cache["census_report"] = runner.run(self.population())
        return self._cache["census_report"]
