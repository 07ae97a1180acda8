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
from repro.net.conditions import default_condition_database
from repro.parallel import ParallelExecutor, TaskFailure, task_seeds
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


def _sleep_forever(value):
    import time
    time.sleep(60)
    return value


class TestParallelExecutor:
    def test_backend_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(backend="threads")
        with pytest.raises(ValueError):
            ParallelExecutor(backend="thread")  # removed with thread workers
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ValueError):
            ParallelExecutor(chunk_size=0)

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
        parallel = ParallelExecutor(backend="process", max_workers=2,
                                    chunk_size=3).map(_seeded_draw, tasks)
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
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_raised_exception_becomes_task_failure(self, backend):
        executor = ParallelExecutor(backend=backend, max_workers=2,
                                    capture_failures=True)
        results = executor.map(_boom_on_three, [1, 2, 3, 4])
        assert results[0] == 1 and results[1] == 4 and results[3] == 16
        failure = results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 2
        assert failure.error_type == "ValueError"
        assert "boom at 3" in failure.message
        assert "ValueError" in failure.traceback_text

    def test_without_capture_exceptions_propagate(self):
        executor = ParallelExecutor(backend="serial")
        with pytest.raises(ValueError, match="boom"):
            executor.map(_boom_on_three, [1, 2, 3])

    def test_describe_callback_annotates_failures(self):
        executor = ParallelExecutor(capture_failures=True)
        results = executor.map(
            _boom_on_three, [3],
            describe=lambda index, task: f"task value {task}")
        assert results[0].description == "task value 3"
        assert str(results[0]) == ("task 0 (task value 3): "
                                   "ValueError: boom at 3")

    def test_task_timeout_requires_capture(self):
        with pytest.raises(ValueError, match="capture_failures"):
            ParallelExecutor(task_timeout=5.0)
        with pytest.raises(ValueError, match="task_timeout"):
            ParallelExecutor(capture_failures=True, task_timeout=0.0)

    def test_task_timeout_yields_timeout_failure(self):
        executor = ParallelExecutor(backend="process", max_workers=2,
                                    capture_failures=True, task_timeout=0.5)
        results = executor.map(_sleep_forever, [1])
        assert isinstance(results[0], TaskFailure)
        assert results[0].error_type == "TimeoutError"
        assert "task_timeout" in results[0].message

    def test_capture_keeps_task_order(self):
        executor = ParallelExecutor(backend="process", max_workers=2,
                                    capture_failures=True)
        results = executor.map(_square, list(range(20)))
        assert results == [value * value for value in range(20)]


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


class TestParallelCensus:
    def _population(self, size=25):
        population = ServerPopulation(PopulationConfig(size=size, seed=37))
        population.generate()
        return population

    def test_process_census_identical_to_serial(self, trained_classifier):
        serial_report = CensusRunner(
            trained_classifier, CensusConfig(seed=5)).run(self._population())
        parallel_report = CensusRunner(
            trained_classifier,
            CensusConfig(seed=5, backend="process", max_workers=2)).run(self._population())
        serial_outcomes = [dataclasses.asdict(o) for o in serial_report.outcomes]
        parallel_outcomes = [dataclasses.asdict(o) for o in parallel_report.outcomes]
        assert serial_outcomes == parallel_outcomes

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
            trained_classifier,
            CensusConfig(seed=5, backend="process", max_workers=2)).run(
                self._population(size=12))
        assert calls == [("process", "_probe_task", 12)]
        assert ([dataclasses.asdict(o) for o in parallel_report.outcomes]
                == [dataclasses.asdict(o) for o in serial_report.outcomes])

    def test_explicit_executor_overrides_config(self, trained_classifier):
        runner = CensusRunner(trained_classifier, CensusConfig(seed=5),
                              executor=ParallelExecutor(backend="process", max_workers=2))
        report = runner.run(self._population())
        baseline = CensusRunner(trained_classifier, CensusConfig(seed=5)).run(
            self._population())
        assert ([dataclasses.asdict(o) for o in report.outcomes]
                == [dataclasses.asdict(o) for o in baseline.outcomes])

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
