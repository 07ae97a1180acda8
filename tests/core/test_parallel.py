"""Tests for the parallel execution layer and its census/training users.

The contract under test: the ``process`` backend produces *identical*
results to the ``serial`` backend for the same seeds — the executor only
changes wall-clock time, never outcomes.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.training import TrainingSetBuilder
from repro.faults import FaultPlan, FaultSpec
from repro.net.conditions import default_condition_database
from repro.parallel import ParallelExecutor, task_seeds
from repro.web.population import PopulationConfig, ServerPopulation


def _square(value):
    return value * value


def _seeded_draw(task):
    index, seed = task
    return index, float(np.random.default_rng(seed).random())


def _boom_on_three(value):
    if value == 3:
        raise ValueError(f"boom at {value}")
    return value * value


class TestParallelExecutor:
    def test_backend_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(backend="threads")
        with pytest.raises(ValueError):
            ParallelExecutor(backend="thread")  # removed with thread workers
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)

    def test_serial_map_preserves_order(self):
        executor = ParallelExecutor()
        assert executor.map(_square, range(8)) == [i * i for i in range(8)]

    def test_process_map_matches_serial(self):
        items = list(range(12))
        serial = ParallelExecutor().map(_square, items)
        parallel = ParallelExecutor(backend="process", max_workers=2).map(_square, items)
        assert serial == parallel

    def test_empty_task_list(self):
        assert ParallelExecutor(backend="process").map(_square, []) == []

    def test_task_seeds_are_deterministic_and_independent(self):
        first = task_seeds(123, 6)
        second = task_seeds(123, 6)
        draws_a = [np.random.default_rng(s).random() for s in first]
        draws_b = [np.random.default_rng(s).random() for s in second]
        assert draws_a == draws_b
        assert len(set(draws_a)) == len(draws_a)

    def test_seeded_tasks_identical_across_backends(self):
        tasks = list(enumerate(task_seeds(7, 10)))
        serial = ParallelExecutor().map(_seeded_draw, tasks)
        parallel = ParallelExecutor(backend="process",
                                    max_workers=2).map(_seeded_draw, tasks)
        assert serial == parallel

    def test_initializer_runs_before_tasks(self):
        # In-process on the serial backend, so a closure initializer works.
        seen = []
        results = ParallelExecutor().map(
            lambda value: (seen[0], _square(value)), range(6),
            initializer=seen.append, initargs=("ready",))
        assert results == [("ready", i * i) for i in range(6)]
        assert seen == ["ready"]


class TestFailureCapture:
    def test_without_capture_exceptions_propagate(self):
        executor = ParallelExecutor(backend="serial")
        with pytest.raises(ValueError, match="boom"):
            executor.map(_boom_on_three, [1, 2, 3])


@pytest.fixture(scope="module")
def tiny_training_builder():
    return TrainingSetBuilder(
        conditions_per_pair=2,
        seed=13,
        w_timeouts=(64,),
        algorithms=("reno", "cubic-b", "bic", "vegas"),
        condition_database=default_condition_database(size=200, seed=3),
    )


class TestParallelTraining:
    def test_process_training_set_identical_to_serial(self, tiny_training_builder):
        serial = tiny_training_builder.build_dataset()
        parallel = tiny_training_builder.build_dataset(
            ParallelExecutor(backend="process", max_workers=2))
        assert np.array_equal(serial.features, parallel.features)
        assert list(serial.labels) == list(parallel.labels)

    def test_examples_carry_pair_provenance(self, tiny_training_builder):
        examples = tiny_training_builder.build_examples()
        assert {example.w_timeout for example in examples} == {64}
        assert {example.algorithm for example in examples} <= {"reno", "cubic-b",
                                                               "bic", "vegas"}


#: Flaky, dead and truncating servers at once: every probe-fault kind the
#: census retries or gives up on.
CHAOS_PLAN = FaultPlan(seed=99, specs=(
    FaultSpec(kind="unresponsive", probability=0.25, persist_attempts=1),
    FaultSpec(kind="connection_reset", probability=0.1,
              persist_attempts=None),
    FaultSpec(kind="truncated_response", probability=0.2,
              persist_attempts=2),
))

#: The probe phase on two worker processes.
PROCESS_EXECUTOR = ParallelExecutor(backend="process", max_workers=2)


class TestParallelCensus:
    def _population(self, size=25):
        population = ServerPopulation(PopulationConfig(size=size, seed=37))
        population.generate()
        return population

    def _serial_and_process(self, classifier, **config):
        """The census run serially and on two worker processes, each on a
        fresh population (probing mutates server state). The process run
        goes first, so its forked workers cannot inherit the probe state
        the serial run leaves in this process."""
        process = CensusRunner(classifier, CensusConfig(seed=5, **config),
                               executor=PROCESS_EXECUTOR)
        process_report = process.run(self._population())
        serial = CensusRunner(classifier, CensusConfig(seed=5, **config))
        return serial.run(self._population()), process_report

    def test_process_census_identical_to_serial(self, trained_classifier):
        serial_report, parallel_report = self._serial_and_process(
            trained_classifier)
        serial_outcomes = [dataclasses.asdict(o) for o in serial_report.outcomes]
        parallel_outcomes = [dataclasses.asdict(o) for o in parallel_report.outcomes]
        assert serial_outcomes == parallel_outcomes

    @pytest.mark.parametrize("config", [
        pytest.param(dict(fault_plan=CHAOS_PLAN, backoff_base=0.1,
                          backoff_max=1.0), id="chaos"),
        pytest.param(dict(scenario_pack="ack-manipulated"),
                     id="ack-manipulated"),
    ])
    def test_process_census_identical_to_serial_under(
            self, trained_classifier, config):
        serial_report, parallel_report = self._serial_and_process(
            trained_classifier, **config)
        assert ([dataclasses.asdict(o) for o in parallel_report.outcomes]
                == [dataclasses.asdict(o) for o in serial_report.outcomes])
        if "fault_plan" in config:
            assert serial_report.retry_total() > 0  # the plan engaged

    def test_process_census_fans_out_one_task_per_server(self, trained_classifier,
                                                          monkeypatch):
        """The pool gets one probe task per server, not one batch of them."""
        serial_report = CensusRunner(
            trained_classifier, CensusConfig(seed=5)).run(self._population(size=12))
        calls = []
        original_map = ParallelExecutor.map

        def spy(executor, function, tasks, *args, **kwargs):
            tasks = list(tasks)
            calls.append((executor.backend, function.__name__, len(tasks)))
            return original_map(executor, function, tasks, *args, **kwargs)

        monkeypatch.setattr(ParallelExecutor, "map", spy)
        parallel_report = CensusRunner(
            trained_classifier, CensusConfig(seed=5),
            executor=PROCESS_EXECUTOR).run(self._population(size=12))
        assert calls == [("process", "_probe_task", 12)]
        assert ([dataclasses.asdict(o) for o in parallel_report.outcomes]
                == [dataclasses.asdict(o) for o in serial_report.outcomes])

    def test_batch_classification_matches_per_probe_path(self, trained_classifier):
        """The census' batch classification equals classify_probe one by one."""
        from repro.core.census import probe_server
        from repro.web.crawler import PageSearchTool
        config = CensusConfig(seed=9)
        report = CensusRunner(trained_classifier, config).run(self._population(size=15))
        # Fresh population: probing mutates server-side state (ssthresh caches).
        population = self._population(size=15)
        crawler = PageSearchTool(page_budget=config.crawler_page_budget)
        seeds = task_seeds(config.seed, len(population.records))
        compared = 0
        for outcome, record, seed in zip(report.outcomes, population.records, seeds):
            partial, probe = probe_server(record, crawler, config,
                                          np.random.default_rng(seed))
            if probe is None:
                continue
            identification = trained_classifier.classify_probe(probe)
            assert outcome.confidence == identification.confidence
            if not identification.unsure:
                assert outcome.category == identification.label
            compared += 1
        assert compared > 0
