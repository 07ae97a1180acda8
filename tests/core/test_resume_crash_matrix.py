"""Crash-matrix tests: kill a sharded census anywhere, resume bit-identically.

The matrix crosses *where* the census dies (between shards via
``stop_after_shards``, mid-write via injected ``torn_checkpoint`` faults at
several record offsets and shards) with a seeded probe-fault plan that keeps
the retry machinery busy, and asserts the resumed merge is byte-identical to
an uninterrupted monolithic run under the same probe faults.
"""

import json

import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import CheckpointError, TornWriteError
from repro.faults import FaultPlan, FaultSpec
from repro.web.population import PopulationConfig, ServerPopulation

NUM_SHARDS = 3

#: Probe-layer chaos active in every matrix cell: flaky and truncating
#: servers exercise retries while the census is being killed and resumed.
PROBE_SPECS = (
    FaultSpec(kind="unresponsive", probability=0.3, persist_attempts=1),
    FaultSpec(kind="truncated_response", probability=0.2, persist_attempts=2),
)


def fresh_population():
    population = ServerPopulation(PopulationConfig(size=15, seed=99))
    population.generate()
    return population


def make_config(extra_specs=()):
    plan = FaultPlan(seed=7, specs=PROBE_SPECS + tuple(extra_specs))
    return CensusConfig(seed=21, fault_plan=plan, backoff_base=0.1,
                        backoff_max=1.0)


def report_blob(report):
    return json.dumps([outcome.to_json_dict() for outcome in report.outcomes],
                      sort_keys=True)


@pytest.fixture(scope="module")
def reference_blob(trained_classifier):
    """The uninterrupted monolithic run under the probe-fault plan."""
    runner = CensusRunner(trained_classifier, make_config())
    return report_blob(runner.run(fresh_population()))


class TestCrashMatrix:
    @pytest.mark.parametrize("kill_after", [1, 2])
    def test_kill_between_shards(self, trained_classifier, reference_blob,
                                 tmp_path, kill_after):
        directory = tmp_path / "ckpt"
        runner = CensusRunner(trained_classifier, make_config())
        partial = runner.run_sharded(fresh_population(), directory,
                                     num_shards=NUM_SHARDS,
                                     stop_after_shards=kill_after)
        assert partial is None
        merged = runner.resume(fresh_population(), directory)
        assert report_blob(merged) == reference_blob

    @pytest.mark.parametrize("shard,records", [(0, 0), (0, 3), (1, 1),
                                               (2, 2), (2, 0)])
    def test_kill_mid_shard_write(self, trained_classifier, reference_blob,
                                  tmp_path, shard, records):
        directory = tmp_path / "ckpt"
        torn = FaultSpec(kind="torn_checkpoint", scope=str(shard),
                         at_round=records, persist_attempts=1)
        runner = CensusRunner(trained_classifier, make_config((torn,)))
        with pytest.raises(TornWriteError) as excinfo:
            runner.run_sharded(fresh_population(), directory,
                               num_shards=NUM_SHARDS)
        assert excinfo.value.path is not None
        assert f"{shard:04d}" in excinfo.value.path.name
        assert excinfo.value.hint
        merged = runner.resume(fresh_population(), directory)
        assert merged is not None
        assert report_blob(merged) == reference_blob

    def test_two_tears_then_resume(self, trained_classifier, reference_blob,
                                   tmp_path):
        # A tear on shard 0 and shard 2 in the same plan: the first run dies
        # on shard 0, the first resume dies on shard 2, the second resume
        # completes — still bit-identical.
        directory = tmp_path / "ckpt"
        tears = (FaultSpec(kind="torn_checkpoint", scope="0", at_round=1,
                           persist_attempts=1),
                 FaultSpec(kind="torn_checkpoint", scope="2", at_round=2,
                           persist_attempts=1))
        runner = CensusRunner(trained_classifier, make_config(tears))
        with pytest.raises(TornWriteError):
            runner.run_sharded(fresh_population(), directory,
                               num_shards=NUM_SHARDS)
        with pytest.raises(TornWriteError):
            runner.resume(fresh_population(), directory)
        merged = runner.resume(fresh_population(), directory)
        assert report_blob(merged) == reference_blob

    def test_tear_under_worker_deaths_and_dead_hosts(self, trained_classifier,
                                                    tmp_path):
        # The other cells carry neither spec: worker deaths recovered
        # in-process and permanently dead hosts, both in the shard torn
        # after two records.
        chaos = (FaultSpec(kind="connection_reset", probability=0.1,
                           persist_attempts=None),
                 FaultSpec(kind="worker_death", probability=0.15,
                           persist_attempts=1))
        reference = CensusRunner(trained_classifier, make_config(chaos)).run(
            fresh_population())
        torn = FaultSpec(kind="torn_checkpoint", scope="1", at_round=2,
                         persist_attempts=1)
        runner = CensusRunner(trained_classifier, make_config(chaos + (torn,)))
        directory = tmp_path / "ckpt"
        with pytest.raises(TornWriteError):
            runner.run_sharded(fresh_population(), directory,
                               num_shards=NUM_SHARDS)
        merged = runner.resume(fresh_population(), directory)
        assert report_blob(merged) == report_blob(reference)
        kinds = {kind for outcome in merged.outcomes
                 for kind, _ in outcome.fault_events}
        assert {"connection_reset", "worker_death"} <= kinds

    def test_torn_shard_stays_pending(self, trained_classifier, tmp_path):
        directory = tmp_path / "ckpt"
        torn = FaultSpec(kind="torn_checkpoint", scope="0", at_round=1,
                         persist_attempts=1)
        runner = CensusRunner(trained_classifier, make_config((torn,)))
        with pytest.raises(TornWriteError):
            runner.run_sharded(fresh_population(), directory,
                               num_shards=NUM_SHARDS)
        status = CensusRunner.checkpoint_status(directory)
        assert 0 in status["pending_shards"]
        # Merging an incomplete checkpoint must refuse loudly.
        with pytest.raises(CheckpointError):
            CensusRunner.merge_checkpoint(directory)

    def test_worker_death_mid_census_resumes_identically(
            self, trained_classifier, tmp_path):
        # Worker deaths recover in-process, so the sharded run completes in
        # one invocation; its merge must equal the monolithic run under the
        # same plan.
        death = FaultSpec(kind="worker_death", probability=0.25,
                          persist_attempts=1)
        runner = CensusRunner(trained_classifier, make_config((death,)))
        monolithic = report_blob(runner.run(fresh_population()))
        directory = tmp_path / "ckpt"
        merged = runner.run_sharded(fresh_population(), directory,
                                    num_shards=NUM_SHARDS)
        assert report_blob(merged) == monolithic
