"""Crash-matrix tests: kill a sharded census anywhere, resume bit-identically.

The matrix crosses *where* the census dies (between shards via
``stop_after_shards``, mid-write via injected ``torn_checkpoint`` faults at
several record offsets and shards) with a seeded probe-fault plan that keeps
the retry machinery busy, and asserts the resumed merge is byte-identical to
an uninterrupted monolithic run under the same probe faults. The census runs
through the orchestrator with one worker process, so a tear is raised in
the worker and re-raised by ``run`` as the crash.
"""

import json

import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import (
    CensusCheckpoint,
    CheckpointError,
    TornWriteError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.serving.orchestrator import CensusOrchestrator
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


def orchestrator_for(runner, directory):
    """Create or attach to the checkpointed census in ``directory``."""
    return CensusOrchestrator(runner, fresh_population(), directory,
                              num_shards=NUM_SHARDS)


def sharded_census(runner, directory, stop_after_shards=None):
    """Start or resume the checkpointed census with one worker."""
    return orchestrator_for(runner, directory).run(
        workers=1, stop_after_shards=stop_after_shards)


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
        partial = sharded_census(runner, directory, stop_after_shards=kill_after)
        assert partial is None
        merged = sharded_census(runner, directory)
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
            sharded_census(runner, directory)
        assert excinfo.value.path is not None
        assert f"{shard:04d}" in excinfo.value.path.name
        assert excinfo.value.hint
        merged = sharded_census(runner, directory)
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
            sharded_census(runner, directory)
        with pytest.raises(TornWriteError):
            sharded_census(runner, directory)
        merged = sharded_census(runner, directory)
        assert report_blob(merged) == reference_blob

    def test_tear_under_worker_deaths_and_dead_hosts(self, trained_classifier,
                                                    tmp_path):
        # The other cells carry neither spec: permanently dead hosts, and a
        # worker that dies holding shard 2's first lease in the run that
        # resumes the tear of shard 1.
        chaos = (FaultSpec(kind="connection_reset", probability=0.1,
                           persist_attempts=None),
                 FaultSpec(kind="worker_death", scope="2",
                           persist_attempts=1))
        reference = CensusRunner(trained_classifier, make_config(chaos)).run(
            fresh_population())
        torn = FaultSpec(kind="torn_checkpoint", scope="1", at_round=2,
                         persist_attempts=1)
        runner = CensusRunner(trained_classifier, make_config(chaos + (torn,)))
        directory = tmp_path / "ckpt"
        with pytest.raises(TornWriteError):
            sharded_census(runner, directory)
        resumed = orchestrator_for(runner, directory)
        merged = resumed.run(workers=1)
        assert report_blob(merged) == report_blob(reference)
        kinds = {kind for outcome in merged.outcomes
                 for kind, _ in outcome.fault_events}
        assert "connection_reset" in kinds
        # The dying worker committed the rewritten shard 1; the next
        # round's worker stole shard 2.
        assert [(stat.completed, stat.stolen, stat.died)
                for stat in resumed.worker_stats()] == [([1], [], True),
                                                        ([2], [2], False)]

    def test_torn_shard_stays_pending(self, trained_classifier, tmp_path):
        directory = tmp_path / "ckpt"
        torn = FaultSpec(kind="torn_checkpoint", scope="0", at_round=1,
                         persist_attempts=1)
        runner = CensusRunner(trained_classifier, make_config((torn,)))
        with pytest.raises(TornWriteError):
            sharded_census(runner, directory)
        checkpoint = CensusCheckpoint.open(directory)
        assert 0 in checkpoint.pending_shards()
        # Merging an incomplete checkpoint must refuse loudly.
        with pytest.raises(CheckpointError):
            checkpoint.merge_report()

    def test_worker_death_mid_census_resumes_identically(
            self, trained_classifier, tmp_path):
        # The first holder of every shard's lease dies. Each death ends a
        # round of the one worker, and the next round's worker reclaims the
        # dead holder's lease and replays its shard, so the census
        # completes in one invocation; its merge must equal the monolithic
        # run under the same plan.
        death = FaultSpec(kind="worker_death", persist_attempts=1)
        runner = CensusRunner(trained_classifier, make_config((death,)))
        monolithic = report_blob(runner.run(fresh_population()))
        orchestrator = orchestrator_for(runner, tmp_path / "ckpt")
        merged = orchestrator.run(workers=1)
        assert report_blob(merged) == monolithic
        assert [(stat.completed, stat.died)
                for stat in orchestrator.worker_stats()] == [
            ([], True), ([0], True), ([1], True), ([2], False)]
