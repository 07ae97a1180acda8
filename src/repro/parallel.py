"""Parallel execution layer for the embarrassingly parallel workloads.

The census probes every server independently and the training-set builder
emulates every (algorithm, ``w_timeout``) pair independently, so both fan out
naturally. :class:`ParallelExecutor` wraps the two execution strategies behind
one ``map``-style interface:

* ``serial`` -- run tasks in-process, in order (the default; also what the
  worker processes themselves use);
* ``process`` -- fan tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism is the design constraint: callers derive one independent random
seed per task with :func:`task_seeds` (NumPy ``SeedSequence.spawn``, so child
streams are independent regardless of task count) and ``map`` always returns
results in task order. A workload run through the ``process`` backend is
therefore bit-identical to the same workload run serially.

For long-running fan-outs the executor can also *capture* per-task failures
instead of letting the first exception abort the whole map: with
``capture_failures=True`` a crashing task yields a structured
:class:`TaskFailure` (task index, a caller-supplied description such as the
task's seed, and the formatted exception) in its result slot, so the caller
can recover the failed slots deterministically while keeping every completed
result. An optional per-task ``task_timeout`` bounds how long any single task
may run on the ``process`` backend: once a slot times out, ``map`` stops the
pool's workers before it returns, so a hung task cannot hold the caller.
"""

from __future__ import annotations

import functools
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

#: Names accepted by :class:`ParallelExecutor`'s ``backend`` field.
BACKENDS = ("serial", "process")


def task_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent, deterministic child seeds of ``seed``.

    The children only depend on ``seed`` and their position, never on how the
    tasks are later scheduled, which is what makes parallel runs reproducible.

    Args:
        seed: The parent seed.
        count: Number of child seed sequences to derive.

    Returns:
        ``count`` independent :class:`numpy.random.SeedSequence` children.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return list(np.random.SeedSequence(seed).spawn(count))


def default_worker_count() -> int:
    """Worker count used when the caller does not pin one.

    Returns:
        One worker per CPU (at least 1).
    """
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that raised instead of returning.

    Occupies the failed task's slot in :meth:`ParallelExecutor.map` results
    when ``capture_failures`` is on, carrying enough context to re-run the
    task deterministically: its index in the submitted task list, a
    caller-supplied description (typically the task's seed), and the
    exception itself.

    Attributes:
        index: Zero-based position of the task in the submitted list.
        description: Caller-supplied task context (e.g. ``"seed=1234"``);
            ``None`` when no ``describe`` callback was given.
        error_type: The exception class name (``"TimeoutError"`` for a task
            that exceeded ``task_timeout``).
        message: ``str(exception)``.
        traceback_text: Formatted traceback, when one is available.
    """

    index: int
    description: str | None
    error_type: str
    message: str
    traceback_text: str = ""

    def __str__(self) -> str:
        """Human-readable one-liner for logs and error messages.

        Returns:
            ``"task 12 (seed=99): ValueError: boom"``-style text.
        """
        where = f"task {self.index}"
        if self.description:
            where += f" ({self.description})"
        return f"{where}: {self.error_type}: {self.message}"


def _failure_from_exception(index: int, description: str | None,
                            exc: BaseException) -> TaskFailure:
    """Build a :class:`TaskFailure` out of a caught exception."""
    return TaskFailure(
        index=index,
        description=description,
        error_type=type(exc).__name__,
        message=str(exc),
        traceback_text="".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__)),
    )


def _run_captured(function: Callable, index: int, description: str | None,
                  task) -> object:
    """Run one task, converting an exception into a :class:`TaskFailure`.

    Module-level (not a closure) so the ``process`` backend can pickle it.
    """
    try:
        return function(task)
    except Exception as exc:  # noqa: BLE001 - captured into a structured record
        return _failure_from_exception(index, description, exc)


@dataclass
class ParallelExecutor:
    """Deterministic map over independent tasks with a pluggable backend.

    Attributes:
        backend: ``"serial"`` or ``"process"``.
        max_workers: worker count for the process backend (``None`` uses
            one worker per CPU). Without ``capture_failures`` the tasks go
            out in chunks that give every worker about four batches
            (amortising IPC without starving the pool).
        capture_failures: when ``True``, a task that raises contributes a
            :class:`TaskFailure` to the results instead of aborting the map;
            when ``False`` (the default) exceptions propagate exactly as
            before.
        task_timeout: wall-clock seconds any single task may run on the
            ``process`` backend before its slot becomes a ``TimeoutError``
            :class:`TaskFailure`; ``map`` then stops the pool's workers, so
            it returns without waiting for the timed-out task (requires
            ``capture_failures``; ignored by the serial backend, which
            cannot pre-empt a task).
    """

    backend: str = "serial"
    max_workers: int | None = None
    capture_failures: bool = False
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.task_timeout is not None:
            if self.task_timeout <= 0:
                raise ValueError("task_timeout must be positive")
            if not self.capture_failures:
                raise ValueError("task_timeout requires capture_failures "
                                 "(a timed-out task must land somewhere)")

    @property
    def workers(self) -> int:
        """Effective worker count (``max_workers`` or one per CPU)."""
        return self.max_workers if self.max_workers is not None else default_worker_count()

    def map(self, function: Callable, tasks: Iterable,
            initializer: Callable | None = None,
            initargs: Sequence = (),
            describe: Callable | None = None) -> list:
        """Apply ``function`` to every task, returning results in task order.

        Args:
            function: Picklable callable applied to each task.
            tasks: The task objects (materialised into a list up front).
            initializer: Runs once per worker (or once in-process for the
                serial backend) before any task; use it to build per-worker
                state that is expensive to pickle per task.
            initargs: Arguments passed to ``initializer``.
            describe: Optional ``describe(index, task) -> str`` giving the
                human-readable context stored on a :class:`TaskFailure`
                (only consulted when ``capture_failures`` is on).

        Returns:
            ``[function(task) for task in tasks]``, always in task order
            regardless of backend or worker count. With ``capture_failures``
            on, slots whose task raised (or timed out) hold a
            :class:`TaskFailure` instead.
        """
        task_list = list(tasks)
        if self.backend == "serial" or not task_list:
            if initializer is not None:
                initializer(*initargs)
            if not self.capture_failures:
                return [function(task) for task in task_list]
            return [_run_captured(function, index,
                                  self._describe(describe, index, task), task)
                    for index, task in enumerate(task_list)]
        workers = min(self.workers, len(task_list))
        with ProcessPoolExecutor(max_workers=workers, initializer=initializer,
                                 initargs=tuple(initargs)) as pool:
            if not self.capture_failures:
                chunk = max(1, len(task_list) // (workers * 4))
                return list(pool.map(function, task_list, chunksize=chunk))
            return self._map_captured(pool, function, task_list, describe)

    # ------------------------------------------------------------- internals
    @staticmethod
    def _describe(describe: Callable | None, index: int, task) -> str | None:
        if describe is None:
            return None
        return describe(index, task)

    def _map_captured(self, pool, function: Callable,
                      task_list: list, describe: Callable | None) -> list:
        """Submit-per-task map with failure capture and per-task timeouts.

        Tasks are submitted individually (no chunking) so each gets its own
        future: a raised exception is recorded against exactly one slot, and
        ``task_timeout`` bounds each slot's wait (collected in task order, so
        time spent by earlier tasks also covers later ones — the budget is a
        per-task floor, not an exact pre-emption). Results stay in task
        order. If any slot timed out, the pool's workers are terminated
        before returning: leaving the pool's ``with`` block would otherwise
        wait for the timed-out task to finish.
        """
        futures = []
        for index, task in enumerate(task_list):
            wrapped = functools.partial(
                _run_captured, function, index,
                self._describe(describe, index, task))
            futures.append(pool.submit(wrapped, task))
        results: list = []
        timed_out = False
        for index, future in enumerate(futures):
            try:
                results.append(future.result(timeout=self.task_timeout))
            except FutureTimeoutError:
                timed_out = True
                future.cancel()
                results.append(_failure_from_exception(
                    index,
                    self._describe(describe, index, task_list[index]),
                    TimeoutError(
                        f"task exceeded task_timeout={self.task_timeout}s")))
            except Exception as exc:  # noqa: BLE001 - pool/pickling errors
                results.append(_failure_from_exception(
                    index,
                    self._describe(describe, index, task_list[index]),
                    exc))
        if timed_out:
            # The executor has no public call that stops a running task;
            # the pool notices its dead workers and reaps them on shutdown.
            for process in list(pool._processes.values()):
                process.terminate()
        return results
