"""Unit tests of the work queue's lease / heartbeat / steal algebra.

All timing is driven through an injectable fake clock, so expiry and steals
are exercised deterministically — no sleeps, no wall-clock flakiness. The
cross-process tests fork real child processes that share the queue.
"""

import json
import multiprocessing

import pytest

from repro.core.checkpoint import CensusCheckpoint
from repro.serving.queue import (
    QUEUE_FORMAT_VERSION,
    QUEUE_NAME,
    Lease,
    WorkQueue,
    WorkQueueError,
)

TIMEOUT = 10.0

#: Seconds any child process of these tests may take before it counts as hung.
JOIN_TIMEOUT = 30.0

FORK = multiprocessing.get_context("fork")


def run_in_child(target, *args):
    """Run ``target(*args)`` in a forked child and reap it; return its pid."""
    child = FORK.Process(target=target, args=args)
    child.start()
    child.join(JOIN_TIMEOUT)
    assert not child.is_alive() and child.exitcode == 0
    return child.pid


class FakeClock:
    """A manually advanced time source."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def checkpoint(tmp_path) -> CensusCheckpoint:
    return CensusCheckpoint.create(tmp_path / "ckpt", seed=1, num_shards=3,
                                   fingerprint="f" * 16, population_size=6)


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def queue(checkpoint, clock) -> WorkQueue:
    return WorkQueue(checkpoint, lease_timeout=TIMEOUT, clock=clock)


class TestClaim:
    def test_grants_lowest_pending_shard_first(self, queue):
        lease = queue.claim("w0")
        assert lease == Lease(shard=0, worker="w0", generation=0, stolen=False)

    def test_concurrent_workers_get_distinct_shards(self, queue):
        shards = {queue.claim(f"w{i}").shard for i in range(3)}
        assert shards == {0, 1, 2}

    def test_returns_none_while_all_pending_shards_hold_live_leases(self, queue):
        for i in range(3):
            queue.claim(f"w{i}")
        assert queue.claim("late") is None

    def test_skips_completed_shards(self, checkpoint, queue):
        checkpoint.write_shard(0, [])
        assert queue.claim("w0").shard == 1

    def test_rejects_non_positive_lease_timeout(self, checkpoint):
        with pytest.raises(ValueError, match="lease_timeout"):
            WorkQueue(checkpoint, lease_timeout=0.0)


class TestStealing:
    def test_expired_lease_is_stolen_with_a_generation_bump(self, queue, clock):
        original = queue.claim("victim")
        clock.advance(TIMEOUT)
        stolen = queue.claim("thief")
        assert stolen == Lease(shard=0, worker="thief", generation=1,
                               stolen=True)
        assert not queue.is_current(original)
        assert queue.is_current(stolen)

    def test_live_lease_is_not_stealable(self, queue, clock):
        queue.claim("holder")
        clock.advance(TIMEOUT - 0.01)
        assert queue.claim("thief").shard == 1  # shard 0 still held

    def test_heartbeat_defers_expiry(self, queue, clock):
        lease = queue.claim("holder")
        clock.advance(TIMEOUT - 1.0)
        assert queue.heartbeat(lease)
        clock.advance(TIMEOUT - 1.0)
        # Without the heartbeat the lease would have expired by now.
        assert queue.claim("thief").shard == 1
        assert queue.is_current(lease)

    def test_stale_holder_cannot_heartbeat(self, queue, clock):
        original = queue.claim("victim")
        clock.advance(TIMEOUT)
        queue.claim("thief")
        assert not queue.heartbeat(original)

    def test_second_steal_bumps_generation_again(self, queue, clock):
        queue.claim("w0")
        clock.advance(TIMEOUT)
        queue.claim("w1")
        clock.advance(TIMEOUT)
        assert queue.claim("w2").generation == 2


class TestLifecycle:
    def test_finish_drops_the_lease_entry(self, queue):
        lease = queue.claim("w0")
        assert queue.finish(lease)
        assert str(lease.shard) not in json.loads(
            queue.path.read_text())["leases"]

    def test_completed_shard_invalidates_its_lease(self, checkpoint, queue):
        lease = queue.claim("w0")
        checkpoint.write_shard(0, [])
        assert not queue.is_current(lease)
        assert not queue.heartbeat(lease)

    def test_reclaim_stale_expires_every_persisted_lease(self, queue):
        """Leases left by a process that has exited (a reaped child's pid)
        expire at once; the next claim of each is a steal."""
        pid = run_in_child(lambda: [queue.claim(f"w{i}") for i in range(2)])
        leases = queue.snapshot()["leases"]
        assert {entry["pid"] for entry in leases.values()} == {pid}
        assert queue.reclaim_stale() == [0, 1]
        stolen = queue.claim("w2")
        assert stolen.shard == 0
        assert stolen.stolen

    def test_reclaim_stale_spares_a_live_holder(self, queue):
        """A live pid's lease (another serving process) is not stolen."""
        queue.claim("live")
        assert queue.reclaim_stale() == []
        assert queue.claim("restarted").shard == 1

    def test_reclaim_stale_expires_leases_recorded_without_a_pid(self, queue):
        """queue.json files written before holders were recorded."""
        queue.claim("w0")
        state = json.loads(queue.path.read_text())
        del state["leases"]["0"]["pid"]
        queue.path.write_text(json.dumps(state))
        assert queue.reclaim_stale() == [0]

    def test_reclaim_stale_leaves_other_hosts_to_the_timeout(self, queue):
        pid = run_in_child(queue.claim, "remote")
        state = json.loads(queue.path.read_text())
        state["leases"]["0"]["host"] = "another-host"
        queue.path.write_text(json.dumps(state))
        assert queue.snapshot()["leases"][0]["pid"] == pid
        assert queue.reclaim_stale() == []

    def test_snapshot_reports_leases_and_pending_work(self, queue):
        queue.claim("w0")
        snapshot = queue.snapshot()
        assert snapshot["lease_timeout"] == TIMEOUT
        assert snapshot["pending_shards"] == [0, 1, 2]
        assert snapshot["leases"][0]["worker"] == "w0"


class TestPersistence:
    def test_leases_survive_a_process_restart(self, checkpoint, queue, clock):
        queue.claim("old-process")
        reopened = CensusCheckpoint.open(checkpoint.directory)
        fresh = WorkQueue(reopened, lease_timeout=TIMEOUT, clock=clock)
        # The persisted lease is honoured: shard 0 is not claimable yet.
        assert fresh.claim("new-process").shard == 1
        clock.advance(TIMEOUT)
        assert fresh.claim("new-process").shard == 0

    def test_missing_queue_file_starts_fresh(self, checkpoint):
        queue = WorkQueue(checkpoint, lease_timeout=TIMEOUT)
        assert not queue.path.exists()
        assert queue.snapshot()["leases"] == {}


class TestCrossProcess:
    """The lock and the reload protocol across real forked processes."""

    def test_forked_child_blocks_while_the_parent_holds_the_lock(
            self, queue):
        """A child forked while the parent holds the lock must not inherit
        it: re-entrancy and the flock belong to the parent process."""
        receiver, sender = FORK.Pipe(duplex=False)

        def child():
            with queue.locked():
                sender.send("acquired")

        with queue.locked():
            process = FORK.Process(target=child)
            process.start()
            assert not receiver.poll(1.0)  # blocked on the flock
        assert receiver.poll(JOIN_TIMEOUT)
        assert receiver.recv() == "acquired"
        process.join(JOIN_TIMEOUT)
        assert not process.is_alive() and process.exitcode == 0

    def test_claims_made_in_another_process_are_seen(self, queue):
        run_in_child(queue.claim, "child")
        # The parent's in-memory state predates the child's claim; the next
        # acquire reloads queue.json and the manifest.
        assert queue.claim("parent").shard == 1

    def test_concurrent_processes_never_share_a_shard(self, tmp_path, clock):
        """More claimers than cores racing on one queue: a lost update in
        the read-modify-write would grant some shard twice."""
        checkpoint = CensusCheckpoint.create(
            tmp_path / "many", seed=1, num_shards=24, fingerprint="f" * 16,
            population_size=24)
        queue = WorkQueue(checkpoint, lease_timeout=TIMEOUT, clock=clock)
        receiver, sender = FORK.Pipe(duplex=False)

        def claimer(name):
            shards = []
            while (lease := queue.claim(name)) is not None:
                shards.append(lease.shard)
            sender.send(shards)

        processes = [FORK.Process(target=claimer, args=(f"w{i}",))
                     for i in range(4)]
        for process in processes:
            process.start()
        granted = []
        for _ in processes:
            assert receiver.poll(JOIN_TIMEOUT)
            granted.extend(receiver.recv())
        for process in processes:
            process.join(JOIN_TIMEOUT)
            assert not process.is_alive() and process.exitcode == 0
        assert sorted(granted) == list(range(24))


class TestCorruption:
    """queue.json is disposable; corruption fails loudly with the recipe."""

    def _expect_error(self, checkpoint, match):
        with pytest.raises(WorkQueueError, match=match) as excinfo:
            WorkQueue(checkpoint, lease_timeout=TIMEOUT)
        error = excinfo.value
        assert error.path == checkpoint.directory / QUEUE_NAME
        assert "manifest is authoritative" in error.hint

    def test_invalid_json(self, checkpoint):
        (checkpoint.directory / QUEUE_NAME).write_text("{not json")
        self._expect_error(checkpoint, match="not valid JSON")

    def test_version_skew(self, checkpoint):
        (checkpoint.directory / QUEUE_NAME).write_text(json.dumps(
            {"format": QUEUE_FORMAT_VERSION + 1, "leases": {}}))
        self._expect_error(checkpoint, match="format version")

    def test_not_an_object(self, checkpoint):
        (checkpoint.directory / QUEUE_NAME).write_text(json.dumps("str"))
        self._expect_error(checkpoint, match="not an object")

    def test_missing_lease_table(self, checkpoint):
        (checkpoint.directory / QUEUE_NAME).write_text(json.dumps(
            {"format": QUEUE_FORMAT_VERSION}))
        self._expect_error(checkpoint, match="no lease table")
