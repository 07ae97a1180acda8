"""A persistent work queue with lease / heartbeat / steal semantics.

PR 4's sharded census assigns every shard to whichever single invocation is
running; the serving layer generalises that into a **work queue**: any number
of workers *claim* pending shards, *heartbeat* while working on them, and
*steal* shards whose holder stopped heartbeating (a crashed or wedged
worker). The queue never owns results — shard completion lives in the
checkpoint manifest (:class:`~repro.core.checkpoint.CensusCheckpoint`),
which stays the single source of truth — so the queue can be lost, rebuilt
or steal aggressively without ever corrupting a census.

Lease algebra:

* a *lease* on shard ``s`` is ``(worker, generation)``; ``generation``
  counts how many times the shard's lease has been granted (a steal bumps
  it);
* a lease is *expired* once ``now - heartbeat_at >= lease_timeout``;
  claiming an expired lease is a steal: the old holder's generation becomes
  stale, so its later ``heartbeat``/``release`` calls report the loss
  instead of resurrecting the lease;
* completion is decided at commit time by the orchestrator while holding
  the queue's lock, so exactly one holder can mark a shard complete, and a
  stale holder's work is discarded — harmlessly, because shard outcomes are
  a pure function of (census seed, shard indices) and the stolen replay is
  bit-identical.

The queue state is persisted as ``queue.json`` next to the checkpoint
manifest after every mutation (atomic write + rename), so an interrupted
serving process leaves its leases on disk: a restart sees them, reclaims
those whose holder process is gone (or waits out the lease timeout), steals,
and resumes — merging bit-identically to a run that was never interrupted.

Any number of processes may share one queue. Every operation holds the
queue's lock, which is an in-process re-entrant lock plus an exclusive
``flock`` on ``queue.lock`` in the checkpoint directory; the outermost
acquire re-reads ``queue.json`` and the checkpoint manifest, so every
claim, heartbeat and commit is a read-modify-write of the current on-disk
state, atomic across processes. Each lease records its holder's pid and
host, which is how :meth:`WorkQueue.reclaim_stale` tells a dead holder from
a live one.
"""

from __future__ import annotations

import fcntl
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.checkpoint import CensusCheckpoint
from repro.store import StoreError, read_json_object, write_json_atomic

#: Queue state file, stored inside the checkpoint directory.
QUEUE_NAME = "queue.json"

#: Lock file whose ``flock`` serialises the queue across processes.
LOCK_NAME = "queue.lock"

#: On-disk queue format version; bumped on any incompatible change.
QUEUE_FORMAT_VERSION = 1

#: Default seconds without a heartbeat before a lease may be stolen.
DEFAULT_LEASE_TIMEOUT = 30.0


class WorkQueueError(StoreError):
    """The queue state file is corrupt or from an incompatible version."""


#: Recovery hint for a rejected ``queue.json``.
_QUEUE_HINT = "delete queue.json; the manifest is authoritative"


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one shard.

    Attributes:
        shard: The claimed shard index.
        worker: The claiming worker's identifier.
        generation: How many grants this shard's lease has seen (steals
            bump it); a lease is *current* only while its generation matches
            the queue's.
        stolen: Whether this grant stole an expired lease.
    """

    shard: int
    worker: str
    generation: int
    stolen: bool = False


class _QueueLock:
    """A re-entrant lock that excludes other threads *and* other processes.

    Threads of this process queue on a :class:`threading.RLock`; the
    outermost acquire then takes an exclusive ``flock`` on the lock file and
    runs ``on_acquire`` (the queue's reload). The file is opened per
    outermost acquire and closed on release: a ``flock`` belongs to an open
    file description, which a forked child shares with its parent, so a
    descriptor kept open would let a child "acquire" a lock its parent
    holds, and let probe-pool processes forked inside a worker keep the
    lock alive after the worker is killed. For the same reason a forked
    child drops whatever lock state it inherited and starts unlocked.
    """

    def __init__(self, path: Path, on_acquire):
        self._path = path
        self._on_acquire = on_acquire
        self._start_unlocked()

    def _start_unlocked(self) -> None:
        self._pid = os.getpid()
        self._rlock = threading.RLock()
        self._depth = 0
        self._fd: int | None = None

    def acquire(self) -> bool:
        """Wait for the lock; the outermost acquire reloads the queue state.

        Returns:
            ``True`` (the lock is held).
        """
        if self._pid != os.getpid():
            # A forked child starts unlocked. A descriptor inherited from a
            # parent that held the lock shares the parent's flock, so it is
            # closed without unlocking.
            if self._fd is not None:
                os.close(self._fd)
            self._start_unlocked()
        self._rlock.acquire()
        if self._depth:
            self._depth += 1
            return True
        fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except BaseException:
            os.close(fd)
            self._rlock.release()
            raise
        self._fd, self._depth = fd, 1
        try:
            self._on_acquire()
        except BaseException:
            self.release()
            raise
        return True

    def release(self) -> None:
        """Release one level; the outermost release drops the ``flock``."""
        self._depth -= 1
        if not self._depth:
            fd, self._fd = self._fd, None
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        self._rlock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


def _holder_alive(entry: dict) -> bool:
    """Whether the process recorded in a lease entry may still hold it.

    Entries without a pid (written before holders were recorded) count as
    dead; a holder on another host cannot be checked and counts as alive.
    """
    pid = entry.get("pid")
    if pid is None:
        return False
    if entry.get("host") != socket.gethostname():
        return True
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


class WorkQueue:
    """Lease/heartbeat/steal bookkeeping over a checkpoint's pending shards.

    Safe across threads and processes: every operation holds the queue's
    lock (see the module docstring), which the orchestrator also borrows
    (via :meth:`locked`) to make check-currency-then-write-shard commits
    atomic against concurrent stealing workers.
    """

    def __init__(self, checkpoint: CensusCheckpoint, *,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 clock=time.time):
        """Attach a queue to a checkpoint, loading persisted lease state.

        Args:
            checkpoint: The checkpoint whose pending shards are the work
                items; its manifest remains the single source of truth for
                completion.
            lease_timeout: Seconds without a heartbeat before a lease is
                stealable.
            clock: Callable returning the current time in seconds; wall
                clock by default so timestamps are comparable across
                processes. Tests inject a fake clock to drive steals
                deterministically.

        Raises:
            WorkQueueError: If a persisted ``queue.json`` exists but is
                unreadable or of an incompatible format version.
            ValueError: If ``lease_timeout`` is not positive.
        """
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self._checkpoint = checkpoint
        self._lease_timeout = float(lease_timeout)
        self._clock = clock
        self._state = self._load_state()
        self._lock = _QueueLock(checkpoint.directory / LOCK_NAME,
                                on_acquire=self._reload)

    # ------------------------------------------------------------ properties
    @property
    def path(self) -> Path:
        """Where the queue state is persisted (inside the checkpoint dir)."""
        return self._checkpoint.directory / QUEUE_NAME

    @property
    def lease_timeout(self) -> float:
        """Seconds without a heartbeat before a lease is stealable."""
        return self._lease_timeout

    def locked(self):
        """The queue's lock, for callers composing atomic commit sequences.

        Returns:
            The re-entrant, cross-process lock guarding all queue state
            (``acquire``/``release`` or ``with``); holding it, the queue
            and the checkpoint manifest are current with the disk.
        """
        return self._lock

    # ------------------------------------------------------------ operations
    def claim(self, worker_id: str) -> Lease | None:
        """Claim the lowest-numbered claimable pending shard.

        A shard is claimable when it is pending in the manifest and either
        unleased, voluntarily released, or holds an expired lease (which is
        then stolen: the generation bumps, invalidating the old holder).

        Args:
            worker_id: The claiming worker's identifier.

        Returns:
            The granted :class:`Lease`, or ``None`` when nothing is
            claimable right now (all pending shards hold live leases).
        """
        with self._lock:
            now = float(self._clock())
            for shard in self._checkpoint.pending_shards():
                entry = self._state["leases"].get(str(shard))
                if entry is None:
                    lease = self._grant(shard, worker_id, generation=0,
                                        stolen=False, now=now)
                    return lease
                if now - float(entry["heartbeat_at"]) >= self._lease_timeout:
                    lease = self._grant(shard, worker_id,
                                        generation=int(entry["generation"]) + 1,
                                        stolen=True, now=now)
                    return lease
            return None

    def heartbeat(self, lease: Lease) -> bool:
        """Refresh a lease's heartbeat.

        Args:
            lease: The lease to refresh.

        Returns:
            ``True`` if the lease is still current (heartbeat recorded);
            ``False`` if it was stolen or its shard completed — the worker
            should abandon the shard.
        """
        with self._lock:
            if not self.is_current(lease):
                return False
            entry = self._state["leases"][str(lease.shard)]
            entry["heartbeat_at"] = float(self._clock())
            self._persist()
            return True

    def is_current(self, lease: Lease) -> bool:
        """Whether a lease still entitles its holder to commit the shard.

        Args:
            lease: The lease to check.

        Returns:
            ``True`` while the shard is pending and the queue's lease entry
            still carries this lease's worker and generation.
        """
        with self._lock:
            if self._checkpoint.shard_status(lease.shard) != "pending":
                return False
            entry = self._state["leases"].get(str(lease.shard))
            return (entry is not None
                    and entry["worker"] == lease.worker
                    and int(entry["generation"]) == lease.generation)

    def release(self, lease: Lease) -> bool:
        """Voluntarily give a lease back (the shard becomes claimable).

        Args:
            lease: The lease to release.

        Returns:
            ``True`` if the lease was current and is now released;
            ``False`` if it had already been stolen (nothing to do).
        """
        with self._lock:
            if not self.is_current(lease):
                return False
            del self._state["leases"][str(lease.shard)]
            self._persist()
            return True

    def finish(self, lease: Lease) -> bool:
        """Drop a completed shard's lease entry (commit bookkeeping).

        Called by the orchestrator *after* the shard file is durably
        written, inside a :meth:`locked` section that also performed the
        currency check — so only the single winning holder gets here.

        Args:
            lease: The lease whose shard was just committed.

        Returns:
            ``True`` if a lease entry was dropped.
        """
        with self._lock:
            entry = self._state["leases"].pop(str(lease.shard), None)
            self._persist()
            return entry is not None

    def reclaim_stale(self) -> list[int]:
        """Expire the leases whose holder process is gone (restart recovery).

        A serving process that restarts over an existing checkpoint would
        otherwise wait out the lease timeout for the leases its previous
        incarnation left behind. This expires the leases recorded on this
        host by a pid that no longer runs, and those recorded without a pid
        (files written before holders were recorded); the next ``claim`` of
        each shard is recorded as a steal. A live holder — another serving
        process on the same directory — keeps its lease, and a holder on
        another host is left to the lease timeout.

        Returns:
            The shard indices whose leases were force-expired.
        """
        with self._lock:
            now = float(self._clock())
            stale = []
            for key, entry in self._state["leases"].items():
                if _holder_alive(entry):
                    continue
                entry["heartbeat_at"] = now - self._lease_timeout
                stale.append(int(key))
            if stale:
                self._persist()
            return sorted(stale)

    def snapshot(self) -> dict:
        """Machine-readable queue status (leases, timeouts, pending work).

        Returns:
            A dict with the pending shards, the live lease table and the
            lease timeout.
        """
        with self._lock:
            return {
                "lease_timeout": self._lease_timeout,
                "pending_shards": self._checkpoint.pending_shards(),
                "leases": {int(k): dict(v)
                           for k, v in self._state["leases"].items()},
            }

    # ------------------------------------------------------------- internals
    def _grant(self, shard: int, worker_id: str, *, generation: int,
               stolen: bool, now: float) -> Lease:
        self._state["leases"][str(shard)] = {
            "worker": worker_id,
            "generation": generation,
            "acquired_at": now,
            "heartbeat_at": now,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }
        self._persist()
        return Lease(shard=shard, worker=worker_id, generation=generation,
                     stolen=stolen)

    def _persist(self) -> None:
        write_json_atomic(self.path, self._state)

    def _reload(self) -> None:
        """Adopt the on-disk state other processes may have changed."""
        self._checkpoint.reload()
        self._state = self._load_state()

    def _load_state(self) -> dict:
        state = read_json_object(self.path, QUEUE_FORMAT_VERSION,
                                 WorkQueueError, _QUEUE_HINT)
        if state is None:
            return {"format": QUEUE_FORMAT_VERSION, "leases": {}}
        if not isinstance(state.get("leases"), dict):
            raise WorkQueueError(
                f"work-queue state {self.path} has no lease table",
                path=self.path, hint=_QUEUE_HINT)
        return state
