"""Crash/steal matrix of the work-stealing census orchestrator.

Every cell asserts the strongest possible property: the merged report is
**byte-identical** (``report_blob``) to the monolithic run — under
concurrent workers, injected worker death, lease stealing and stale-holder
discards. The determinism contract (shard outcomes are a pure function of
census seed + population indices) is what makes the assertion achievable at
all. The workers are real processes, and the last class kills them — and a
whole artifact-served ``python -m repro.census`` process — with SIGKILL.
Interrupt → resume through the orchestrator is covered by
``tests/core/test_resume_crash_matrix.py``.
"""

import fcntl
import json
import multiprocessing
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
from repro.parallel import ParallelExecutor
from repro.serving.artifact import load_model, save_model
from repro.serving.orchestrator import CensusOrchestrator
from repro.serving.queue import LOCK_NAME, QUEUE_NAME
from repro.web.population import PopulationConfig, ServerPopulation

NUM_SHARDS = 4
SEED = 33
SRC = Path(__file__).resolve().parents[2] / "src"


def fresh_population(size=12):
    population = ServerPopulation(PopulationConfig(size=size, seed=77))
    population.generate()
    return population


def make_runner(trained_classifier, fault_plan=None):
    return CensusRunner(trained_classifier,
                        CensusConfig(seed=SEED, fault_plan=fault_plan))


def report_blob(report):
    return json.dumps([outcome.to_json_dict() for outcome in report.outcomes],
                      sort_keys=True)


@pytest.fixture(scope="module")
def monolithic_blob(trained_classifier):
    """Reference: the plain single-process census."""
    runner = make_runner(trained_classifier)
    return report_blob(runner.run(fresh_population()))


class TestParity:
    def test_concurrent_workers_match_monolithic(
            self, trained_classifier, monolithic_blob, tmp_path, monkeypatch):
        """Two workers measure at the same time and merge to the monolithic
        bytes. Each worker's first measurement waits on a two-party barrier
        that only the other worker's first measurement can release, so
        workers that take turns fail. The barrier times out well below
        ``lease_timeout / 3``: workers that took turns would otherwise block
        in the heartbeat thread instead of failing."""
        barrier = multiprocessing.get_context("fork").Barrier(2, timeout=5.0)
        measure = CensusRunner.measure_indices
        waited = False  # per process: each forked worker has its own copy

        def meeting(self, *args, **kwargs):
            nonlocal waited
            if not waited:
                waited = True
                barrier.wait()
            return measure(self, *args, **kwargs)

        monkeypatch.setattr(CensusRunner, "measure_indices", meeting)
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS)
        assert report_blob(orchestrator.run(workers=2)) == monolithic_blob
        stats = orchestrator.worker_stats()
        assert len(stats) == 2 and all(stat.completed for stat in stats)

    @pytest.mark.parametrize("runner_options", [
        {"executor": ParallelExecutor(backend="process", max_workers=2)},
    ], ids=["executor"])
    def test_rejects_a_process_backend_runner(self, trained_classifier,
                                              tmp_path, runner_options):
        runner = CensusRunner(trained_classifier, **runner_options)
        with pytest.raises(ValueError, match="serial backend"):
            CensusOrchestrator(runner, fresh_population(), tmp_path / "ckpt")
        assert not (tmp_path / "ckpt").exists()

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
            FaultSpec(kind="worker_death", scope="1", probability=1.0,
                      persist_attempts=1),))
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier, plan), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS, lease_timeout=0.3)
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
            FaultSpec(kind="worker_death", scope=str(shard),
                      probability=1.0, persist_attempts=1)
            for shard in range(NUM_SHARDS)))
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier, plan), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS, lease_timeout=0.3)
        report = orchestrator.run(workers=2)
        assert report_blob(report) == monolithic_blob
        stats = orchestrator.worker_stats()
        assert sorted(s for stat in stats for s in stat.stolen) == list(
            range(NUM_SHARDS))

    def test_a_fresh_round_reclaims_the_dead_workers_lease_at_once(
            self, trained_classifier, monolithic_blob, tmp_path):
        """One worker, the default lease timeout, a death on shard 0's first
        lease. The next round's worker expires the dead holder's lease
        before it claims anything, so it replays shard 0 first rather than
        last, after waiting out the lease timeout."""
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="worker_death", scope="0", persist_attempts=1),))
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier, plan), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS)
        report = orchestrator.run(workers=1)
        assert report_blob(report) == monolithic_blob
        dead, fresh = orchestrator.worker_stats()
        assert dead.died and dead.completed == []
        assert fresh.completed == [0, 1, 2, 3] and fresh.stolen == [0]

    def test_a_survivor_steals_the_dead_workers_lease_at_once(
            self, trained_classifier, monolithic_blob, tmp_path):
        """Two workers, a 10-s lease timeout, a death on shard 1's first
        lease. The parent expires the lease as soon as it reaps the dead
        worker, so the survivor of the same round steals shard 1 at once
        instead of idling until the lease times out."""
        lease_timeout = 10.0
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind="worker_death", scope="1", persist_attempts=1),))
        orchestrator = CensusOrchestrator(
            make_runner(trained_classifier, plan), fresh_population(),
            tmp_path / "ckpt", num_shards=NUM_SHARDS,
            lease_timeout=lease_timeout)
        began = time.perf_counter()
        report = orchestrator.run(workers=2)
        assert time.perf_counter() - began < lease_timeout / 2
        assert report_blob(report) == monolithic_blob
        stats = orchestrator.worker_stats()
        assert len(stats) == 2
        dead = [stat for stat in stats if stat.died]
        survivors = [stat for stat in stats if not stat.died]
        assert len(dead) == 1 and dead[0].completed == []
        assert 1 in survivors[0].stolen

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


def leases_in_group(checkpoint_dir: Path, group: int) -> dict[int, int]:
    """``{shard: holder pid}`` of the leases held by processes of ``group``."""
    held = {}
    for shard, pid in lease_holders(checkpoint_dir).items():
        try:
            if os.getpgid(pid) == group:
                held[shard] = pid
        except ProcessLookupError:
            continue
    return held


def wait_for_lease_in_group(checkpoint_dir: Path, group: int,
                            timeout: float = 60.0) -> int:
    """Poll until a process of ``group`` holds a lease; return its shard."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        held = leases_in_group(checkpoint_dir, group)
        if held:
            return min(held)
        time.sleep(0.01)
    raise AssertionError(f"process group {group} never held a lease")


def stopped(pid: int) -> bool:
    """Whether every thread of process ``pid`` is stopped (Linux ``/proc``)."""
    try:
        stats = [path.read_text()
                 for path in Path(f"/proc/{pid}/task").glob("*/stat")]
    except FileNotFoundError:  # a thread exited while being listed
        return False
    return bool(stats) and all(stat.rsplit(")", 1)[1].split()[0] == "T"
                               for stat in stats)


def freeze_holding_a_lease(checkpoint_dir: Path, group: int) -> tuple[int, int]:
    """SIGSTOP process group ``group`` while one of its workers holds a lease.

    The stop is sent while this process holds the queue lock, which it
    releases only once the group's processes have stopped: a process
    frozen inside a queue operation would hold the lock and shut every
    other worker out. A group caught between two shards is resumed and
    caught again.

    Returns:
        ``(shard, pid)`` of a lease the frozen group holds.
    """
    while True:
        wait_for_lease_in_group(checkpoint_dir, group)
        lock = os.open(checkpoint_dir / LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            os.killpg(group, signal.SIGSTOP)
            held = leases_in_group(checkpoint_dir, group)
            if not held:
                os.killpg(group, signal.SIGCONT)
                continue
            deadline = time.monotonic() + 60.0
            while not all(stopped(pid) for pid in {group, *held.values()}):
                assert time.monotonic() < deadline, \
                    f"process group {group} did not stop"
                time.sleep(0.001)
            return min(held.items())
        finally:
            os.close(lock)


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

    #: The survivor's lease timeout: longer than the victim stays frozen
    #: (the survivor's start-up), so the survivor steals nothing from the
    #: frozen victim, and the wait for the dead victim's lease to expire.
    SURVIVOR_LEASE_TIMEOUT = 8

    def test_two_serve_processes_survive_one_being_sigkilled(
            self, trained_classifier, tmp_path):
        """Two census processes serve one checkpoint from an artifact: a
        ``run --artifact`` victim creates it and a ``resume`` survivor
        joins it. The victim is frozen (SIGSTOP) while holding a lease, so
        it cannot drain the census before the survivor claims a shard of
        its own; then it is SIGKILLed (with its worker), the survivor
        steals its shard once the lease expires, and the survivor's report
        equals the monolithic census."""
        artifact = tmp_path / "model.caai"
        save_model(trained_classifier, artifact)
        checkpoint = tmp_path / "ckpt"
        settings = {"servers": 96, "population_seed": 2011,
                    "conditions": "paper", "condition_db_size": 1000,
                    "condition_seed": 2010}
        shards = 8
        command = [sys.executable, "-m", "repro.census"]
        execution = ["--checkpoint", str(checkpoint), "--workers", "1"]
        run = ["run", "--artifact", str(artifact), "--shards", str(shards),
               "--seed", str(SEED), "--lease-timeout", "1"] + execution
        for key, value in settings.items():
            run += [f"--{key.replace('_', '-')}", str(value)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))

        def serve(name, arguments):
            log = open(tmp_path / f"{name}.log", "w", encoding="utf-8")
            with log:
                return subprocess.Popen(
                    command + arguments
                    + ["--json", str(tmp_path / f"{name}.json")],
                    env=env, stdout=log, stderr=subprocess.STDOUT,
                    start_new_session=True)

        victim = serve("victim", run)
        survivor = None
        try:
            # The victim creates the checkpoint and is frozen on its first
            # lease; the survivor attaches to it and claims a free shard.
            held, holder = freeze_holding_a_lease(checkpoint, victim.pid)
            assert held < shards - 1, "the victim left no shard to claim"
            survivor = serve("survivor", ["resume", "--lease-timeout",
                                          str(self.SURVIVOR_LEASE_TIMEOUT)]
                             + execution)
            wait_for_lease_in_group(checkpoint, survivor.pid)
            holders = lease_holders(checkpoint)
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
            assert holders.get(held) == holder, \
                "the survivor stole the frozen victim's lease before the kill"
            assert held in lease_holders(checkpoint), \
                "the victim's shard was committed before the kill landed"
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
