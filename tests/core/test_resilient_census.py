"""Tests for the resilient census: retries, deadlines, statuses, parity."""

import json

import pytest

from repro.core.census import CensusConfig, CensusRunner, _attempt_seed
from repro.core.results import (STATUS_IDENTIFIED, STATUS_INCONCLUSIVE,
                                STATUS_INVALID_TRACE, STATUS_UNREACHABLE,
                                ServerOutcome)
from repro.core.trace import InvalidReason
from repro.faults import FaultPlan, FaultSpec
from repro.web.population import PopulationConfig, ServerPopulation

import numpy as np


def fresh_population(size=14, seed=77):
    population = ServerPopulation(PopulationConfig(size=size, seed=seed))
    population.generate()
    return population


def report_blob(report):
    return json.dumps([outcome.to_json_dict() for outcome in report.outcomes],
                      sort_keys=True)


def victim_id(index=3):
    return fresh_population().records[index].profile.server_id


class TestAttemptSeeding:
    def test_attempt_zero_is_the_historic_stream(self):
        parent = np.random.SeedSequence(9).spawn(2)[0]
        assert _attempt_seed(parent, 0) is parent

    def test_retry_streams_are_pure_spawn_children(self):
        parent = np.random.SeedSequence(9).spawn(2)[1]
        child = _attempt_seed(parent, 1)
        assert child.spawn_key == tuple(parent.spawn_key) + (0,)
        assert parent.n_children_spawned == 0  # no mutation
        again = _attempt_seed(parent, 1)
        assert (np.random.default_rng(child).integers(0, 2**32)
                == np.random.default_rng(again).integers(0, 2**32))

    def test_distinct_attempts_get_distinct_streams(self):
        parent = np.random.SeedSequence(9)
        draws = {int(np.random.default_rng(_attempt_seed(parent, k))
                     .integers(0, 2**63)) for k in range(4)}
        assert len(draws) == 4


class TestResilientCensus:
    def test_transient_fault_is_retried_to_success(self, trained_classifier):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="unresponsive", scope=victim_id(),
                      persist_attempts=2),))
        config = CensusConfig(seed=17, fault_plan=plan, backoff_base=0.1,
                              backoff_max=1.0)
        report = CensusRunner(trained_classifier, config).run(fresh_population())
        victim = [o for o in report.outcomes if o.server_id == victim_id()][0]
        assert victim.attempts == 3
        assert victim.backoff_total > 0
        assert victim.fault_events == (("unresponsive", 0), ("unresponsive", 1))
        assert victim.valid

    def test_permanent_fault_fails_fast(self, trained_classifier):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="unresponsive", scope=victim_id(),
                      persist_attempts=None),))
        config = CensusConfig(seed=17, fault_plan=plan)
        report = CensusRunner(trained_classifier, config).run(fresh_population())
        victim = [o for o in report.outcomes if o.server_id == victim_id()][0]
        assert victim.attempts == 1  # no retry budget burned on a dead host
        assert not victim.valid
        assert victim.invalid_reason is InvalidReason.CONNECTION_FAILED
        assert victim.status == STATUS_UNREACHABLE

    def test_exhausted_transient_fault_records_the_reason(self, trained_classifier):
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="connection_reset", scope=victim_id(),
                      persist_attempts=99),))
        config = CensusConfig(seed=17, fault_plan=plan, max_probe_attempts=2,
                              backoff_base=0.1, backoff_max=1.0)
        report = CensusRunner(trained_classifier, config).run(fresh_population())
        victim = [o for o in report.outcomes if o.server_id == victim_id()][0]
        assert victim.attempts == 2
        assert victim.invalid_reason is InvalidReason.CONNECTION_RESET
        assert victim.status == STATUS_UNREACHABLE

    def test_probe_deadline_yields_probe_timeout(self, trained_classifier):
        config = CensusConfig(seed=17, probe_deadline=0.5, max_probe_attempts=1)
        report = CensusRunner(trained_classifier, config).run(fresh_population())
        assert all(o.invalid_reason is InvalidReason.PROBE_TIMEOUT
                   for o in report.outcomes)
        assert report.status_counts() == {STATUS_UNREACHABLE: len(report)}

    def test_fault_census_is_reproducible(self, trained_classifier):
        plan = FaultPlan(seed=31, specs=(
            FaultSpec(kind="unresponsive", probability=0.3,
                      persist_attempts=1),
            FaultSpec(kind="truncated_response", probability=0.25,
                      persist_attempts=2),))
        config = CensusConfig(seed=17, fault_plan=plan, backoff_base=0.1,
                              backoff_max=1.0)
        runner = CensusRunner(trained_classifier, config)
        first = report_blob(runner.run(fresh_population()))
        second = report_blob(runner.run(fresh_population()))
        assert first == second

    def test_report_resilience_accounting(self, trained_classifier):
        plan = FaultPlan(seed=31, specs=(
            FaultSpec(kind="unresponsive", probability=0.4,
                      persist_attempts=1),))
        config = CensusConfig(seed=17, fault_plan=plan, backoff_base=0.1,
                              backoff_max=1.0)
        report = CensusRunner(trained_classifier, config).run(fresh_population())
        assert report.has_fault_accounting()
        assert report.retry_total() > 0
        summary = report.resilience_summary()
        assert summary["retry_total"] == report.retry_total()
        assert sum(summary["status_counts"].values()) == len(report)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_probe_attempts"):
            CensusConfig(max_probe_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            CensusConfig(backoff_base=-1.0)
        with pytest.raises(ValueError, match="probe_deadline"):
            CensusConfig(probe_deadline=0.0)


class TestZeroFaultParity:
    @pytest.fixture(scope="class")
    def baseline_blob(self, trained_classifier):
        runner = CensusRunner(trained_classifier, CensusConfig(seed=17))
        return report_blob(runner.run(fresh_population()))

    def test_empty_plan_is_byte_identical(self, trained_classifier,
                                          baseline_blob):
        config = CensusConfig(seed=17, fault_plan=FaultPlan())
        runner = CensusRunner(trained_classifier, config)
        assert report_blob(runner.run(fresh_population())) == baseline_blob

    def test_empty_plan_checkpoint_is_byte_identical(self, trained_classifier,
                                                     tmp_path):
        def checkpoint_files(config, name):
            directory = tmp_path / name
            CensusRunner(trained_classifier, config).run_sharded(
                fresh_population(), directory, num_shards=3)
            return {entry.name: entry.read_bytes()
                    for entry in sorted(directory.iterdir())}

        plain = checkpoint_files(CensusConfig(seed=17), "plain")
        assert len(plain) == 4  # the manifest and three shard files
        empty_plan = checkpoint_files(
            CensusConfig(seed=17, fault_plan=FaultPlan()), "empty-plan")
        assert empty_plan == plain

    def test_neutral_resilience_knobs_are_byte_identical(
            self, trained_classifier, baseline_blob):
        config = CensusConfig(seed=17, max_probe_attempts=5,
                              backoff_base=9.0, backoff_max=90.0)
        runner = CensusRunner(trained_classifier, config)
        assert report_blob(runner.run(fresh_population())) == baseline_blob

    def test_worker_death_fault_census_is_reproducible(self,
                                                       trained_classifier):
        plan = FaultPlan(seed=31, specs=(
            FaultSpec(kind="unresponsive", probability=0.3,
                      persist_attempts=1),
            FaultSpec(kind="worker_death", probability=0.2,
                      persist_attempts=1),))
        config = CensusConfig(seed=17, fault_plan=plan, backoff_base=0.1,
                              backoff_max=1.0)
        blobs = {report_blob(CensusRunner(trained_classifier, config)
                             .run(fresh_population()))
                 for _ in range(2)}
        assert len(blobs) == 1


class TestOutcomeSerialization:
    def _outcome(self, **kwargs):
        return ServerOutcome(server_id="s", valid=True, category="RENO",
                             w_timeout=64, true_algorithm="reno",
                             software="apache", region="eu", **kwargs)

    def test_default_outcome_serializes_without_resilience_fields(self):
        data = self._outcome().to_json_dict()
        assert "attempts" not in data
        assert "status" not in data

    def test_resilient_outcome_round_trips(self):
        outcome = self._outcome(attempts=3, backoff_total=1.25,
                                fault_events=(("unresponsive", 0),
                                              ("worker_death", 1)))
        data = outcome.to_json_dict()
        assert data["attempts"] == 3
        assert data["status"] == STATUS_IDENTIFIED
        restored = ServerOutcome.from_json_dict(json.loads(json.dumps(data)))
        assert restored.attempts == 3
        assert restored.backoff_total == 1.25
        assert restored.fault_events == (("unresponsive", 0),
                                         ("worker_death", 1))

    def test_status_taxonomy(self):
        assert self._outcome().status == STATUS_IDENTIFIED
        unsure = ServerOutcome(server_id="s", valid=True, category="unsure",
                               true_algorithm="reno", software="a", region="r")
        assert unsure.status == STATUS_INCONCLUSIVE
        for reason, expected in [
                (InvalidReason.CONNECTION_FAILED, STATUS_UNREACHABLE),
                (InvalidReason.PROBE_TIMEOUT, STATUS_UNREACHABLE),
                (InvalidReason.CONNECTION_RESET, STATUS_UNREACHABLE),
                (InvalidReason.WORKER_FAILED, STATUS_UNREACHABLE),
                (InvalidReason.NO_TIMEOUT_RESPONSE, STATUS_INVALID_TRACE)]:
            outcome = ServerOutcome(server_id="s", valid=False,
                                    invalid_reason=reason,
                                    true_algorithm="reno", software="a",
                                    region="r")
            assert outcome.status == expected
