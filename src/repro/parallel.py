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
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
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


@dataclass
class ParallelExecutor:
    """Deterministic map over independent tasks with a pluggable backend.

    Attributes:
        backend: ``"serial"`` or ``"process"``.
        max_workers: worker count for the process backend (``None`` uses
            one worker per CPU). The tasks go out in chunks that give every
            worker about four batches (amortising IPC without starving the
            pool).
    """

    backend: str = "serial"
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")

    @property
    def workers(self) -> int:
        """Effective worker count (``max_workers`` or one per CPU)."""
        return self.max_workers if self.max_workers is not None else default_worker_count()

    def map(self, function: Callable, tasks: Iterable,
            initializer: Callable | None = None,
            initargs: Sequence = ()) -> list:
        """Apply ``function`` to every task, returning results in task order.

        Args:
            function: Picklable callable applied to each task.
            tasks: The task objects (materialised into a list up front).
            initializer: Runs once per worker (or once in-process for the
                serial backend) before any task; use it to build per-worker
                state that is expensive to pickle per task.
            initargs: Arguments passed to ``initializer``.

        Returns:
            ``[function(task) for task in tasks]``, always in task order
            regardless of backend or worker count.
        """
        task_list = list(tasks)
        if self.backend == "serial" or not task_list:
            if initializer is not None:
                initializer(*initargs)
            return [function(task) for task in task_list]
        workers = min(self.workers, len(task_list))
        with ProcessPoolExecutor(max_workers=workers, initializer=initializer,
                                 initargs=tuple(initargs)) as pool:
            chunk = max(1, len(task_list) // (workers * 4))
            return list(pool.map(function, task_list, chunksize=chunk))
