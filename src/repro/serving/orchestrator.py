"""Work-stealing census orchestrator: concurrent workers drain a queue.

:class:`CensusOrchestrator` generalises the census's fixed shard loop
(:meth:`repro.core.census.CensusRunner._run_pending_shards`) into a pool of
worker processes pulling shards from a persistent :class:`~repro.serving.queue.WorkQueue`.
Each worker claims a lease, measures the shard through the runner's normal
probe/classify pipeline while a heartbeat thread renews the lease, and
commits the result into the existing JSONL checkpoint format — so resume,
merge and every downstream consumer stay bit-identical to the monolithic
and fixed-shard paths.

Workers are processes forked from the caller, so the runner, classifier and
population are neither re-imported nor pickled, and the probe work of two
workers runs on two cores. A worker sends each committed shard's outcomes
and, at the end, its :class:`WorkerStats` to the parent over a pipe; the
parent calls ``on_shard`` and keeps :meth:`CensusOrchestrator.worker_stats`.
A worker that exits without its final stats (SIGKILL, OOM kill) counts as
``died``: its lease expires and is stolen like an injected death's. An
exception in a worker is re-raised by :meth:`CensusOrchestrator.run`.
A forked child inherits only the forking thread, so call ``run`` from a
process whose other threads, if any, hold no lock the workers need (the
serving CLI calls it from its only thread).

Determinism under stealing: shard outcomes are a pure function of the census
seed and the shard's population indices (per-server streams come from
:func:`repro.parallel.task_seeds`), so a shard that is measured by worker A,
abandoned when A dies, stolen by worker B and measured again produces the
exact same bytes. The commit protocol makes the race harmless:

1. the worker measures the shard *outside* any lock (the slow part);
2. it takes the queue lock, re-checks its lease is still current, writes the
   shard file + flips the manifest, and drops the lease;
3. a stale holder (stolen lease) discards its outcomes; a
   duplicate-completion :class:`~repro.core.checkpoint.CheckpointError`
   from a lost write race is swallowed for the same reason — the winner
   wrote identical bytes.

Fault injection lives at the **lease** level: an orchestrator-level
:class:`~repro.faults.plan.FaultPlan` with ``worker_death`` specs scoped
``"lease:<shard>"`` kills a worker after it claimed the lease (before any
probing), leaving the lease to expire and be stolen. The plan never touches
the runner's config, so the census fingerprint and every probe stream are
identical to a plan-free run — which is exactly what the crash/steal test
matrix asserts.
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
    CheckpointError,
    shard_assignments,
)
from repro.core.results import ServerOutcome
from repro.web.population import ServerPopulation
from repro.faults.plan import FaultPlan
from repro.parallel import task_seeds
from repro.serving.queue import DEFAULT_LEASE_TIMEOUT, Lease, WorkQueue


class _LeaseDeath(Exception):
    """Injected worker death while holding a lease (fault plan)."""


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
            stolen (or the write race lost) before commit.
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
                 on_shard=None, fault_plan: FaultPlan | None = None,
                 poll_interval: float = 0.05):
        """Create or attach to a checkpoint and build its work queue.

        Args:
            runner: The census runner (trained classifier + config); its
                seed keys shard assignment and every probe stream.
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
                invoked after each shard commits — the serving CLI streams
                incremental results through it. Called in the process that
                called :meth:`run`, with the queue lock released.
            fault_plan: Orchestrator-level fault plan; ``worker_death``
                specs scoped ``"lease:<shard>"`` kill a worker right after
                it claims that lease (see module docstring). Never touches
                the runner's probe streams.
            poll_interval: Seconds a worker sleeps between claim attempts
                while every pending shard is leased to another worker.

        Raises:
            repro.core.checkpoint.CheckpointError: If an existing
                checkpoint's fingerprint does not match this runner +
                population.
        """
        self._runner = runner
        self._population = population
        self._records = CensusRunner._records(population)
        self._clock = clock
        self._on_shard = on_shard
        self._fault_plan = fault_plan
        self._poll_interval = float(poll_interval)
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
            reclaim_stale: bool = True) -> CensusReport:
        """Drain every pending shard with ``workers`` worker processes.

        Workers claim leases, measure shards through the runner's pipeline
        and commit them; a worker that dies (killed by the fault plan or by
        a signal) abandons its lease, which expires and is stolen by a
        surviving worker (the supervisor spawns fresh workers when every
        worker died). Returns once all shards are complete.

        Args:
            workers: Number of concurrent worker processes (>= 1).
            reclaim_stale: Expire leases whose holder process is gone (left
                behind by a previous process) immediately instead of
                waiting out the lease timeout.

        Returns:
            The merged :class:`~repro.core.census.CensusReport`,
            bit-identical to a monolithic ``runner.run(population)``.

        Raises:
            ValueError: If ``workers`` < 1.
            Exception: Whatever a worker process raised (its traceback is
                chained as the cause).
            RuntimeError: If a round of workers exits with shards still
                pending, no progress made and no worker dead (should be
                unreachable: workers wait until nothing is pending).
        """
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._stats = {}
        if reclaim_stale:
            self._queue.reclaim_stale()
        spawned = 0
        self._checkpoint.reload()
        while self._checkpoint.pending_shards():
            before = len(self._checkpoint.completed_shards())
            names = [f"worker-{spawned + i}" for i in range(workers)]
            spawned += workers
            self._run_round(names)
            self._checkpoint.reload()
            progress = len(self._checkpoint.completed_shards()) - before
            deaths = any(self._stats[name].died for name in names)
            if self._checkpoint.pending_shards() and not progress and not deaths:
                raise RuntimeError(
                    "orchestrator stalled: workers exited with shards "
                    f"{self._checkpoint.pending_shards()} still pending and "
                    "no progress made")
        return self._checkpoint.merge_report(
            expected_size=len(self._records))

    # ------------------------------------------------------------- internals
    def _run_round(self, names: list[str]) -> None:
        """Fork one worker process per name and supervise them to the end.

        The processes are not daemonic because a ``process``-backend runner
        starts its own probe pool inside each worker. Any that are still
        running when the round is cut short (a worker's exception, an
        interrupt) are terminated.
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

        Waits on the pipes and on the process sentinels: a worker killed
        mid-shard leaves its pipe open in any probe-pool processes it
        forked, but its sentinel still fires.
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
        """Claim-measure-commit until no pending work remains (one worker).

        Args:
            stats: This worker's record, updated in place.
            publish: ``publish(shard, outcomes)``, called after each commit.
        """
        while True:
            lease = self._queue.claim(stats.worker)
            if lease is None:
                # claim() re-read the manifest: either nothing is pending,
                # or every pending shard is leased — wait for its holder to
                # commit it or for the lease to expire and be stolen.
                if not self._checkpoint.pending_shards():
                    return
                time.sleep(self._poll_interval)
                continue
            if lease.stolen:
                stats.stolen.append(lease.shard)
            try:
                outcomes = self._work_one(lease, stats)
            except _LeaseDeath:
                # The injected death abandons the lease: no release, no
                # heartbeat — it expires and a surviving worker steals it.
                stats.died = True
                return
            if outcomes is not None:
                publish(lease.shard, outcomes)

    def _work_one(self, lease: Lease,
                  stats: WorkerStats) -> list[ServerOutcome] | None:
        """Measure one leased shard and commit it if the lease held.

        Returns:
            The shard's outcomes if this worker committed it, ``None`` if it
            discarded them (the lease was stolen, or the write race lost).
        """
        if (self._fault_plan is not None
                and self._fault_plan.lease_death_fires(lease.shard,
                                                       lease.generation)):
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
                self._checkpoint.write_shard(lease.shard,
                                             list(zip(indices, outcomes)))
            except CheckpointError:
                # Lost a write race despite the lease check (a writer that
                # bypasses the queue, such as a fixed-shard resume on the
                # same directory). The winner wrote identical bytes, so
                # losing is harmless.
                stats.discarded.append(lease.shard)
                return None
            finally:
                self._queue.finish(lease)
        stats.completed.append(lease.shard)
        return outcomes
