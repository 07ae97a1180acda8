"""Work-stealing census orchestrator: the one sharded census driver.

:class:`CensusOrchestrator` runs a checkpointed census (and resumes one) as
a pool of worker processes pulling shards from a persistent
:class:`~repro.serving.queue.WorkQueue`. Each worker claims a lease,
measures the shard through the runner's normal probe/classify pipeline
while a heartbeat thread renews the lease, and commits the result into the
JSONL checkpoint format — so merge and every downstream consumer stay
bit-identical to the monolithic :meth:`~repro.core.census.CensusRunner.run`.
One worker is the sequential census; ``run(stop_after_shards=K)`` commits at
most K shards per invocation (exactly K with one worker) and leaves the
rest pending for the next one.

Workers are processes forked from the caller, so the runner, classifier and
population are neither re-imported nor pickled, and the probe work of two
workers runs on two cores. A worker sends each committed shard's outcomes
and, at the end, its :class:`WorkerStats` to the parent over a pipe; the
parent calls ``on_shard`` and keeps :meth:`CensusOrchestrator.worker_stats`.
A worker that exits without its final stats (SIGKILL, OOM kill) counts as
``died``, like an injected death; once the parent reaps a dead worker it
expires the worker's leases, and a surviving worker steals them. An
exception in a worker is re-raised by :meth:`CensusOrchestrator.run`.
A forked child inherits only the forking thread, so call ``run`` from a
process whose other threads, if any, hold no lock the workers need (the
census CLI calls it from its only thread). The workers are the census's
only processes: a runner set up for the ``process`` backend is rejected
rather than nesting a probe pool inside every worker.

Determinism under stealing: shard outcomes are a pure function of the census
seed and the shard's population indices (per-server streams come from
:func:`repro.parallel.task_seeds`), so a shard that is measured by worker A,
abandoned when A dies, stolen by worker B and measured again produces the
exact same bytes. The commit protocol makes the race harmless:

1. the worker measures the shard *outside* any lock (the slow part);
2. it takes the queue lock, re-checks its lease is still current, writes the
   shard file + flips the manifest, and drops the lease;
3. a stale holder (stolen lease) discards its outcomes.

The runner's :class:`~repro.faults.plan.FaultPlan` reaches the workers.
Its ``worker_death`` specs, scoped by shard index (as a string) and keyed
on the lease generation, kill the worker that claimed that lease before it
probes anything, leaving the lease to expire and be stolen; no probe stream
reads them, so the outcomes equal a plan-free run's. Its
``torn_checkpoint`` specs cut a shard write short: the commit raises
:class:`~repro.core.checkpoint.TornWriteError` out of :meth:`run`, the
shard stays pending, and the next run rewrites it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path

from repro.core.census import CensusReport, CensusRunner
from repro.core.checkpoint import (
    MANIFEST_NAME,
    CensusCheckpoint,
    shard_assignments,
)
from repro.core.results import ServerOutcome
from repro.web.population import ServerPopulation
from repro.parallel import task_seeds
from repro.serving.queue import DEFAULT_LEASE_TIMEOUT, Lease, WorkQueue

#: Seconds a worker sleeps between claim attempts while every pending shard
#: is leased to another worker.
POLL_INTERVAL = 0.05


def validate_run(workers: int, stop_after_shards: int | None = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT) -> None:
    """Reject orchestration arguments that cannot drive a census.

    The census CLI calls this before it trains a classifier or creates a
    checkpoint, so a bad value costs no work and leaves nothing behind.

    Raises:
        ValueError: If ``workers`` or ``stop_after_shards`` is below 1, or
            ``lease_timeout`` is not positive.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if stop_after_shards is not None and stop_after_shards < 1:
        raise ValueError("stop_after_shards must be at least 1 (omit it to "
                         "run every pending shard)")
    if lease_timeout <= 0:
        raise ValueError("lease_timeout must be positive")


class _LeaseDeath(Exception):
    """Injected worker death while holding a lease (the runner's plan)."""


class _RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process."""

    def __str__(self) -> str:
        return f"\n{self.args[0]}"


@dataclass
class WorkerStats:
    """What one orchestrator worker did during a run.

    Attributes:
        worker: The worker's identifier (``"worker-N"``).
        completed: Shards this worker measured and committed.
        stolen: Shards this worker claimed by stealing an expired lease.
        discarded: Shards measured but discarded because the lease was
            stolen before commit.
        died: Whether the worker died: an injected lease death, or its
            process exited without reporting (killed by a signal).
    """

    worker: str
    completed: list[int] = field(default_factory=list)
    stolen: list[int] = field(default_factory=list)
    discarded: list[int] = field(default_factory=list)
    died: bool = False


@dataclass
class _Worker:
    """The parent's handle on one worker process."""

    name: str
    process: multiprocessing.process.BaseProcess
    connection: multiprocessing.connection.Connection
    #: The pipe reached end-of-file (the worker closed or lost its end).
    drained: bool = False
    #: The worker sent its final :class:`WorkerStats`.
    reported: bool = False


@contextlib.contextmanager
def _heartbeat(queue: WorkQueue, lease: Lease):
    """Renew ``lease`` every ``lease_timeout / 3`` seconds inside the block.

    Wraps the measurement of a shard, so a live worker keeps a shard that
    takes longer than the lease timeout; the thread stops before the commit.
    """
    stopped = threading.Event()

    def beat() -> None:
        while not stopped.wait(queue.lease_timeout / 3):
            if not queue.heartbeat(lease):
                return  # stolen: the commit check will discard the shard

    thread = threading.Thread(target=beat, daemon=True,
                              name=f"heartbeat-{lease.shard}")
    thread.start()
    try:
        yield
    finally:
        stopped.set()
        thread.join()


class CensusOrchestrator:
    """Drains a checkpoint's pending shards with work-stealing workers."""

    def __init__(self, runner: CensusRunner, population: ServerPopulation,
                 checkpoint_dir, *, num_shards: int = 8,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 settings: dict | None = None, clock=time.time,
                 on_shard=None):
        """Create or attach to a checkpoint and build its work queue.

        Args:
            runner: The census runner (trained classifier + config); its
                seed keys shard assignment and every probe stream, and its
                plan's ``worker_death`` and ``torn_checkpoint`` specs kill
                lease holders and tear shard writes (see module docstring).
                It must probe serially: the workers are the parallelism.
            population: The server population the checkpoint covers.
            checkpoint_dir: Checkpoint directory. A fresh one is created
                when no manifest exists; an existing one is attached to
                (after fingerprint verification) and its remaining shards
                drained — interrupt → resume.
            num_shards: Shard count for a fresh checkpoint (ignored when
                attaching; the manifest's count wins).
            lease_timeout: Seconds without a heartbeat before a worker's
                lease is stolen.
            settings: Free-form dict stored in a fresh manifest.
            clock: Time source shared with the queue; tests inject a fake
                clock to drive steals deterministically.
            on_shard: Optional callback ``on_shard(shard_index, outcomes)``
                invoked after each shard commits — the census CLI streams
                incremental results through it. Called in the process that
                called :meth:`run`, with the queue lock released.

        Raises:
            ValueError: If the runner is set up for the ``process`` backend.
            repro.core.checkpoint.CheckpointError: If an existing
                checkpoint's fingerprint does not match this runner +
                population.
        """
        if runner.executor is not None and runner.executor.backend != "serial":
            raise ValueError(
                "the orchestrator's workers are the census's processes; give "
                "it a runner on the serial backend, not "
                f"{runner.executor.backend!r}")
        self._runner = runner
        self._records = CensusRunner._records(population)
        self._on_shard = on_shard
        #: Shared commit budget of a ``stop_after_shards`` run (``None`` =
        #: unbounded); set by :meth:`run` before the workers fork.
        self._budget = None
        fingerprint = runner._fingerprint(population)
        if (Path(checkpoint_dir) / MANIFEST_NAME).exists():
            # Attach: a corrupt or mismatched manifest fails loudly here.
            self._checkpoint = CensusCheckpoint.open(checkpoint_dir)
            self._checkpoint.verify_fingerprint(fingerprint)
        else:
            self._checkpoint = CensusCheckpoint.create(
                checkpoint_dir, seed=runner.config.seed,
                num_shards=num_shards, fingerprint=fingerprint,
                population_size=len(self._records), settings=settings)
        self._queue = WorkQueue(self._checkpoint,
                                lease_timeout=lease_timeout, clock=clock)
        self._assignments = shard_assignments(
            [record.profile.server_id for record in self._records],
            self._checkpoint.seed, self._checkpoint.num_shards)
        self._seeds = task_seeds(runner.config.seed, len(self._records))
        self._stats: dict[str, WorkerStats] = {}

    # ------------------------------------------------------------ properties
    @property
    def checkpoint(self) -> CensusCheckpoint:
        """The checkpoint the orchestrator commits shards into."""
        return self._checkpoint

    @property
    def queue(self) -> WorkQueue:
        """The work queue coordinating the workers."""
        return self._queue

    def worker_stats(self) -> list[WorkerStats]:
        """Per-worker activity of the most recent :meth:`run`.

        Returns:
            One :class:`WorkerStats` per worker that participated, in
            worker-name order.
        """
        return [self._stats[name] for name in sorted(self._stats)]

    # ------------------------------------------------------------------- run
    def run(self, *, workers: int = 2,
            stop_after_shards: int | None = None) -> CensusReport | None:
        """Drain the pending shards with ``workers`` worker processes.

        Workers claim leases, measure shards through the runner's pipeline
        and commit them; a worker that dies (killed by the fault plan or by
        a signal) abandons its lease, which expires and is stolen by a
        surviving worker. When every worker of a round died, the
        supervisor spawns a fresh round. A steal bumps the lease
        generation, and a ``worker_death`` spec clears within
        :data:`~repro.faults.plan.MAX_LEASE_DEATHS` generations, so a
        fault plan cannot keep a shard from committing. Before each round,
        the leases of processes that no longer run (an earlier
        invocation's, or the last round's dead workers') are expired, so a
        fresh round never waits out the lease timeout of a holder already
        gone. Another live process draining the same checkpoint keeps its
        leases; the workers wait for them.

        Args:
            workers: Number of concurrent worker processes (>= 1).
            stop_after_shards: Commit at most this many shards in this run
                (exactly this many with one worker, unless fewer are
                pending), then return; ``None`` drains everything.

        Returns:
            The merged :class:`~repro.core.census.CensusReport`,
            bit-identical to a monolithic ``runner.run(population)``, or
            ``None`` when shards are still pending.

        Raises:
            ValueError: If ``workers`` or ``stop_after_shards`` < 1.
            Exception: Whatever a worker process raised (its traceback is
                chained as the cause), such as an injected
                :class:`~repro.core.checkpoint.TornWriteError`.
            RuntimeError: If a round of workers exits with shards still
                pending, no progress made and no worker dead (should be
                unreachable: workers wait until nothing is pending).
        """
        validate_run(workers, stop_after_shards)
        self._stats = {}
        self._budget = None
        if stop_after_shards is not None:
            self._budget = multiprocessing.get_context("fork").Value(
                "i", stop_after_shards)
        spawned = 0
        self._checkpoint.reload()
        while self._checkpoint.pending_shards() and self._budget_left():
            self._queue.reclaim_stale()
            before = len(self._checkpoint.completed_shards())
            names = [f"worker-{spawned + i}" for i in range(workers)]
            spawned += workers
            self._run_round(names)
            self._checkpoint.reload()
            progress = len(self._checkpoint.completed_shards()) - before
            deaths = any(self._stats[name].died for name in names)
            if (self._checkpoint.pending_shards() and self._budget_left()
                    and not progress and not deaths):
                raise RuntimeError(
                    "orchestrator stalled: workers exited with shards "
                    f"{self._checkpoint.pending_shards()} still pending and "
                    "no progress made")
        if self._checkpoint.pending_shards():
            return None
        return self._checkpoint.merge_report(
            expected_size=len(self._records))

    # ------------------------------------------------------------- internals
    def _budget_left(self) -> bool:
        """Whether the ``stop_after_shards`` budget allows another commit."""
        return self._budget is None or self._budget.value > 0

    def _spend(self, slots: int) -> bool:
        """Take ``slots`` commit slots of the budget (negative: give back).

        Returns:
            ``False``, taking nothing, when fewer than ``slots`` are left.
        """
        if self._budget is None:
            return True
        with self._budget.get_lock():
            if self._budget.value < slots:
                return False
            self._budget.value -= slots
            return True

    def _run_round(self, names: list[str]) -> None:
        """Fork one worker process per name and supervise them to the end.

        Any worker still running when the round is cut short (a worker's
        exception, an interrupt) is terminated.
        """
        context = multiprocessing.get_context("fork")
        workers: list[_Worker] = []
        try:
            for name in names:
                self._stats[name] = WorkerStats(worker=name)
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(target=self._worker_main,
                                          args=(name, sender), name=name)
                process.start()
                # Only the worker may hold the sending end, or the pipe
                # would never reach end-of-file.
                sender.close()
                workers.append(_Worker(name, process, receiver))
            self._supervise(workers)
        finally:
            for worker in workers:
                if worker.process.is_alive():
                    worker.process.terminate()
                worker.process.join()
                worker.connection.close()

    def _supervise(self, workers: list[_Worker]) -> None:
        """Relay worker messages until every worker process has exited.

        Waits on the pipes and on the process sentinels, so a worker killed
        mid-shard is noticed even before its pipe reaches end-of-file. A
        worker that died has its leases expired as soon as it is reaped, so
        the round's survivors steal its shard at once instead of waiting
        out the lease timeout.
        """
        live = list(workers)
        while live:
            wait([worker.process.sentinel for worker in live]
                 + [worker.connection for worker in live
                    if not worker.drained])
            for worker in list(live):
                exited = not worker.process.is_alive()
                self._receive(worker)
                if exited:
                    live.remove(worker)
                    if not worker.reported:
                        self._stats[worker.name].died = True
                    if self._stats[worker.name].died:
                        self._queue.reclaim_stale()

    def _receive(self, worker: _Worker) -> None:
        """Handle every message waiting on a worker's pipe."""
        while not worker.drained and worker.connection.poll():
            try:
                kind, *payload = worker.connection.recv()
            except EOFError:
                worker.drained = True
                return
            if kind == "shard":
                shard, outcomes = payload
                self._stats[worker.name].completed.append(shard)
                if self._on_shard is not None:
                    self._on_shard(shard, outcomes)
            elif kind == "stats":
                self._stats[worker.name] = payload[0]
                worker.reported = True
            else:  # "error"
                error, text = payload
                raise error from _RemoteTraceback(text)

    def _worker_main(self, name: str, connection) -> None:
        """Body of one worker process: run the loop, report to the parent."""
        stats = WorkerStats(worker=name)

        def publish(shard: int, outcomes: list[ServerOutcome]) -> None:
            connection.send(("shard", shard, outcomes))

        try:
            self._worker_loop(stats, publish)
        except Exception as error:  # noqa: BLE001 - re-raised by the parent
            text = traceback.format_exc()
            try:
                connection.send(("error", error, text))
            except Exception:  # noqa: BLE001 - the exception does not pickle
                connection.send(("error", RuntimeError(repr(error)), text))
        else:
            connection.send(("stats", stats))
        finally:
            connection.close()

    def _worker_loop(self, stats: WorkerStats, publish) -> None:
        """Claim-measure-commit until no pending work or budget remains.

        Args:
            stats: This worker's record, updated in place.
            publish: ``publish(shard, outcomes)``, called after each commit.
        """
        while self._spend(1):
            lease = self._queue.claim(stats.worker)
            if lease is None:
                self._spend(-1)
                # claim() re-read the manifest: either nothing is pending,
                # or every pending shard is leased — wait for its holder to
                # commit it or for the lease to expire and be stolen.
                if not self._checkpoint.pending_shards():
                    return
                time.sleep(POLL_INTERVAL)
                continue
            if lease.stolen:
                stats.stolen.append(lease.shard)
            try:
                outcomes = self._work_one(lease, stats)
            except _LeaseDeath:
                # The injected death abandons the lease: no heartbeat — it
                # expires and a surviving worker steals it.
                self._spend(-1)
                stats.died = True
                return
            if outcomes is None:
                self._spend(-1)
            else:
                publish(lease.shard, outcomes)

    def _work_one(self, lease: Lease,
                  stats: WorkerStats) -> list[ServerOutcome] | None:
        """Measure one leased shard and commit it if the lease held.

        Returns:
            The shard's outcomes if this worker committed it, ``None`` if it
            discarded them (the lease was stolen).

        Raises:
            _LeaseDeath: When the runner plan kills this lease's holder.
            repro.core.checkpoint.TornWriteError: When the runner plan
                tears this write (see :meth:`_torn_after`).
        """
        plan = self._runner.config.fault_plan
        if plan is not None and plan.worker_death_fires(lease.shard,
                                                        lease.generation):
            raise _LeaseDeath(f"injected death holding lease on shard "
                              f"{lease.shard} (generation {lease.generation})")
        indices = self._assignments[lease.shard]
        with _heartbeat(self._queue, lease):
            outcomes = self._runner.measure_indices(self._records, indices,
                                                    seeds=self._seeds)
        with self._queue.locked():
            if not self._queue.is_current(lease):
                stats.discarded.append(lease.shard)
                return None
            try:
                self._checkpoint.write_shard(
                    lease.shard, list(zip(indices, outcomes)),
                    torn_after=self._torn_after(lease.shard))
            finally:
                self._queue.finish(lease)
        stats.completed.append(lease.shard)
        return outcomes

    def _torn_after(self, shard: int) -> int | None:
        """Where the runner plan's ``torn_checkpoint`` cuts this write.

        The write attempt is 1 when a partial file from an earlier tear
        already exists, so ``persist_attempts=1`` tears exactly once.
        """
        plan = self._runner.config.fault_plan
        if plan is None or plan.empty:
            return None
        attempt = 1 if self._checkpoint.shard_path(shard).exists() else 0
        return plan.torn_write_after(shard, attempt)
