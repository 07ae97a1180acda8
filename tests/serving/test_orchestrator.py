"""Crash/steal matrix of the work-stealing census orchestrator.

Every cell asserts the strongest possible property: the merged report is
**byte-identical** (``report_blob``) to the monolithic run and to the
fixed-shard run — under concurrent workers, injected worker death, lease
stealing, stale-holder discards and interrupt → resume. The determinism
contract (shard outcomes are a pure function of census seed + population
indices) is what makes the assertion achievable at all. The workers are
real processes, and the last class kills them — and whole ``repro.serve``
processes — with SIGKILL.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli.settings import build_population
from repro.core.census import CensusConfig, CensusRunner
from repro.core.checkpoint import CheckpointError
from repro.faults import FaultPlan, FaultSpec
from repro.serving.artifact import load_model, save_model
from repro.serving.orchestrator import CensusOrchestrator
from repro.serving.queue import QUEUE_NAME
from repro.web.population import PopulationConfig, ServerPopulation

NUM_SHARDS = 4
SEED = 33
SRC = Path(__file__).resolve().parents[2] / "src"


def fresh_population(size=12):
    population = ServerPopulation(PopulationConfig(size=size, seed=77))
    population.generate()
    return population


def make_runner(trained_classifier, backend="serial"):
    return CensusRunner(trained_classifier,
                        CensusConfig(seed=SEED, backend=backend,
                                     max_workers=2))


def report_blob(report):
    return json.dumps([outcome.to_json_dict() for outcome in report.outcomes],
                      sort_keys=True)


@pytest.fixture(scope="module")
def monolithic_blob(trained_classifier):
    """Reference: the plain single-process census."""
    runner = make_runner(trained_classifier)
    return report_blob(runner.run(fresh_population()))


@pytest.fixture(scope="module")
def fixed_shard_blob(trained_classifier, tmp_path_factory):
    """Reference: the PR-4 fixed-shard checkpointed census."""
    runner = make_runner(trained_classifier)
    directory = tmp_path_factory.mktemp("fixed") / "ckpt"
    report = runner.run_sharded(fresh_population(), directory,
                                num_shards=NUM_SHARDS)
    return report_blob(report)


class TestParity:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_concurrent_workers_match_both_references(
            self, trained_classifier, monolithic_blob, fixed_shard_blob,
            tmp_path, backend):
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier, backend=backend),
            fresh_population(), tmp_path / "ckpt", num_shards=NUM_SHARDS)
        blob = report_blob(orchestrator.run(workers=2))
        assert blob == monolithic_blob
        assert blob == fixed_shard_blob

    def test_single_worker_drains_everything(self, trained_classifier,
                                             monolithic_blob, tmp_path):
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS)
        report = orchestrator.run(workers=1)
        assert report_blob(report) == monolithic_blob
        stats = orchestrator.worker_stats()
        assert sorted(s for stat in stats for s in stat.completed) == list(
            range(NUM_SHARDS))

    def test_on_shard_streams_every_committed_shard(self, trained_classifier,
                                                    tmp_path):
        streamed = {}
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS,
            on_shard=lambda shard, outcomes: streamed.__setitem__(
                shard, len(outcomes)))
        report = orchestrator.run(workers=2)
        assert sorted(streamed) == list(range(NUM_SHARDS))
        assert sum(streamed.values()) == len(report.outcomes)


class TestCrashAndSteal:
    def test_worker_death_mid_lease_is_stolen_and_replayed(
            self, trained_classifier, monolithic_blob, tmp_path):
        """The acceptance scenario: a worker dies holding a lease; the shard
        is stolen, replayed, and the merged report is byte-identical."""
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="worker_death", scope="lease:1", probability=1.0,
                      persist_attempts=1),))
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS, lease_timeout=0.3,
            fault_plan=plan)
        report = orchestrator.run(workers=2)
        assert report_blob(report) == monolithic_blob
        stats = orchestrator.worker_stats()
        assert any(stat.died for stat in stats)
        assert any(1 in stat.stolen for stat in stats)
        # The steal bumped the generation, so the fault (persist_attempts=1)
        # spared the thief and the shard committed exactly once.
        assert sum(stat.completed.count(1) for stat in stats) == 1

    def test_every_shard_death_still_converges(self, trained_classifier,
                                               monolithic_blob, tmp_path):
        """Kill the first holder of *every* shard; all four must be stolen."""
        plan = FaultPlan(seed=5, specs=tuple(
            FaultSpec(kind="worker_death", scope=f"lease:{shard}",
                      probability=1.0, persist_attempts=1)
            for shard in range(NUM_SHARDS)))
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS, lease_timeout=0.3,
            fault_plan=plan)
        report = orchestrator.run(workers=2)
        assert report_blob(report) == monolithic_blob
        stats = orchestrator.worker_stats()
        assert sorted(s for stat in stats for s in stat.stolen) == list(
            range(NUM_SHARDS))

    def test_stale_holder_discards_its_outcomes(self, trained_classifier,
                                                monolithic_blob, tmp_path):
        """Duplicate lease completion: two holders measure the same shard;
        only the current one commits, the stale one discards — harmlessly,
        because both measured identical bytes."""
        clock = {"now": 1000.0}
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS, lease_timeout=5.0,
            clock=lambda: clock["now"])
        queue = orchestrator.queue
        victim = queue.claim("victim")
        clock["now"] += 5.0  # victim's lease expires un-heartbeaten
        thief = queue.claim("thief")
        assert thief.shard == victim.shard and thief.stolen
        from repro.serving.orchestrator import WorkerStats
        victim_stats = WorkerStats(worker="victim")
        thief_stats = WorkerStats(worker="thief")
        orchestrator._work_one(victim, victim_stats)   # measures, then bails
        orchestrator._work_one(thief, thief_stats)     # commits
        assert victim_stats.discarded == [victim.shard]
        assert thief_stats.completed == [thief.shard]
        report = orchestrator.run(workers=2)  # drain the remaining shards
        assert report_blob(report) == monolithic_blob

    def test_interrupted_fixed_shard_run_resumes_via_orchestrator(
            self, trained_classifier, monolithic_blob, fixed_shard_blob,
            tmp_path):
        """Interrupt → resume across *implementations*: a fixed-shard run
        killed between shards is finished by the work-stealing orchestrator
        over the same checkpoint, merging byte-identically."""
        directory = tmp_path / "ckpt"
        runner = make_runner(trained_classifier)
        assert runner.run_sharded(fresh_population(), directory,
                                  num_shards=NUM_SHARDS,
                                  stop_after_shards=2) is None
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(), directory)
        blob = report_blob(orchestrator.run(workers=2))
        assert blob == monolithic_blob
        assert blob == fixed_shard_blob
        # Only the shards the interrupted run left pending were re-measured.
        completed = [s for stat in orchestrator.worker_stats()
                     for s in stat.completed]
        assert len(completed) == NUM_SHARDS - 2

    def test_interrupted_orchestrator_resumes_via_fixed_shard(
            self, trained_classifier, monolithic_blob, tmp_path):
        """And the reverse direction: an orchestrator that only got through
        part of the queue hands the checkpoint back to ``resume``."""
        directory = tmp_path / "ckpt"
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(), directory,
            num_shards=NUM_SHARDS)
        # Simulate an interrupt: commit two shards by hand, leave the rest.
        from repro.serving.orchestrator import WorkerStats
        for _ in range(2):
            lease = orchestrator.queue.claim("partial")
            orchestrator._work_one(lease, WorkerStats(worker="partial"))
        runner = make_runner(trained_classifier)
        merged = runner.resume(fresh_population(), directory)
        assert report_blob(merged) == monolithic_blob

    def test_fingerprint_mismatch_fails_loudly(self, trained_classifier,
                                               tmp_path):
        directory = tmp_path / "ckpt"
        CensusOrchestrator(make_runner(trained_classifier),
                           fresh_population(), directory,
                           num_shards=NUM_SHARDS)
        other = ServerPopulation(PopulationConfig(size=12, seed=78))
        other.generate()
        with pytest.raises(CheckpointError, match="fingerprint"):
            CensusOrchestrator(make_runner(trained_classifier), other,
                               directory)

    def test_rejects_zero_workers(self, trained_classifier, tmp_path):
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS)
        with pytest.raises(ValueError, match="workers"):
            orchestrator.run(workers=0)


class TestHeartbeat:
    def test_shard_longer_than_the_lease_timeout_keeps_its_lease(
            self, trained_classifier, tmp_path):
        """Holders heartbeat while measuring: a live worker whose shard
        takes several lease timeouts is never stolen from."""
        reference = report_blob(make_runner(trained_classifier).run(
            fresh_population(40)))
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(40),
            tmp_path / "ckpt", num_shards=2, lease_timeout=0.3)
        report = orchestrator.run(workers=2)
        stats = orchestrator.worker_stats()
        assert not any(stat.stolen or stat.discarded for stat in stats)
        assert sorted(s for stat in stats for s in stat.completed) == [0, 1]
        assert report_blob(report) == reference


class SelfKillingOrchestrator(CensusOrchestrator):
    """Its worker that first claims shard 1 SIGKILLs its own process."""

    def _work_one(self, lease, stats):
        if lease.shard == 1 and lease.generation == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return super()._work_one(lease, stats)


def lease_holders(checkpoint_dir: Path) -> dict[int, int]:
    """``{shard: holder pid}`` of the leases in ``queue.json`` right now."""
    try:
        state = json.loads((checkpoint_dir / QUEUE_NAME).read_text())
    except (FileNotFoundError, ValueError):  # not written yet / mid-rename
        return {}
    return {int(shard): entry["pid"]
            for shard, entry in state["leases"].items()}


def wait_for_lease_in_group(checkpoint_dir: Path, group: int,
                            timeout: float = 60.0) -> int:
    """Poll until a process of ``group`` holds a lease; return its shard."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for shard, pid in lease_holders(checkpoint_dir).items():
            try:
                if os.getpgid(pid) == group:
                    return shard
            except ProcessLookupError:
                continue
        time.sleep(0.01)
    raise AssertionError(f"process group {group} never held a lease")


class TestRealProcessDeath:
    def test_sigkilled_worker_is_died_and_its_shard_stolen(
            self, trained_classifier, monolithic_blob, tmp_path):
        orchestrator = SelfKillingOrchestrator(
            make_runner(trained_classifier), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS, lease_timeout=0.5)
        report = orchestrator.run(workers=2)
        assert report_blob(report) == monolithic_blob
        stats = orchestrator.worker_stats()
        dead = [stat for stat in stats if stat.died]
        assert len(dead) == 1 and 1 not in dead[0].completed
        assert any(1 in stat.stolen for stat in stats)
        assert sum(stat.completed.count(1) for stat in stats) == 1

    def test_two_serve_processes_survive_one_being_sigkilled(
            self, trained_classifier, tmp_path):
        """Two ``repro.serve`` processes share one checkpoint directory;
        one is SIGKILLed (with its worker) while holding a lease, and the
        survivor's report equals the monolithic census."""
        artifact = tmp_path / "model.caai"
        save_model(trained_classifier, artifact)
        checkpoint = tmp_path / "ckpt"
        settings = {"servers": 96, "population_seed": 2011,
                    "conditions": "paper", "condition_db_size": 1000,
                    "condition_seed": 2010}
        command = [sys.executable, "-m", "repro.serve",
                   "--artifact", str(artifact), "--checkpoint", str(checkpoint),
                   "--shards", "8", "--workers", "1", "--lease-timeout", "1",
                   "--seed", str(SEED)]
        for key, value in settings.items():
            command += [f"--{key.replace('_', '-')}", str(value)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))

        def serve(name):
            log = open(tmp_path / f"{name}.log", "w", encoding="utf-8")
            with log:
                return subprocess.Popen(
                    command + ["--json", str(tmp_path / f"{name}.json")],
                    env=env, stdout=log, stderr=subprocess.STDOUT,
                    start_new_session=True)

        victim = serve("victim")
        survivor = None
        try:
            # The victim creates the checkpoint; the survivor attaches to
            # it while the victim works, and must not take its live lease.
            wait_for_lease_in_group(checkpoint, victim.pid)
            survivor = serve("survivor")
            wait_for_lease_in_group(checkpoint, survivor.pid)
            held = wait_for_lease_in_group(checkpoint, victim.pid)
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
            assert held in lease_holders(checkpoint), \
                "the victim committed its shard before the kill landed"
            assert survivor.wait(timeout=180) == 0, \
                (tmp_path / "survivor.log").read_text()
        finally:
            for process in (victim, survivor):
                if process is not None and process.poll() is None:
                    os.killpg(process.pid, signal.SIGKILL)
                    process.wait()
        reference = CensusRunner(load_model(artifact),
                                 CensusConfig(seed=SEED)).run(
            build_population(settings))
        served = json.loads((tmp_path / "survivor.json").read_text())
        assert served["outcomes"] == json.loads(json.dumps(
            [outcome.to_json_dict() for outcome in reference.outcomes]))
        assert "stole" in (tmp_path / "survivor.log").read_text()
