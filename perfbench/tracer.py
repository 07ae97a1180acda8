"""Span tracer for the benchmark's traced run.

The tracer patches the public entry points of each layer of ``repro`` with
timing wrappers for the duration of a ``with Tracer() as tracer:`` block and
restores every original on exit. Nothing under ``src/`` knows about it.

* A span is ``(id, parent, group, start, end)``; spans are kept in memory
  and can be written out as JSON lines once the run is over.
* Each thread keeps its own stack of open spans, so the parent of a span is
  the innermost open span *of its own thread* (``serve`` runs two workers).
* Depth guard: a call whose group is already the innermost open span of its
  thread runs unwrapped, so a layer entry point that calls another entry
  point of the same group (``TcpSender.on_ack_ladder`` ->
  ``on_ack_packet``) is counted once.
* A layer's self time is the duration of its spans minus the time their
  child spans cover.

Targets that no longer exist (a module or method removed by a later change)
are skipped; the layer then reads zero.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: The ``TcpSender`` entry points the probe engines call (one group, so the
#: depth guard keeps nested entry points from counting twice).
SENDER_ENTRY_POINTS = ("start", "start_native", "on_ack", "on_ack_native",
                       "on_ack_packet", "on_ack_run", "on_ack_run_native",
                       "on_ack_ladder", "on_timer", "on_timer_native")


@dataclass(frozen=True)
class Target:
    """One patched callable: ``module.attr`` (``attr`` may be ``Class.method``)."""

    group: str
    module: str
    attr: str
    #: Optional ``after(tracer, args, result, state)`` run after the call to
    #: record counts the span alone does not carry; ``state`` is what the
    #: optional ``before(tracer, args)`` returned.
    after: Callable | None = None
    before: Callable | None = None


# ------------------------------------------------- before/after callbacks
def _count_vectors(tracer, args, result, state) -> None:
    tracer.count("classifier.vectors", len(result))


def _columnar_stats_before(tracer, args):
    return dataclasses.replace(args[0].stats, ejects_by_reason={})


def _count_columnar(tracer, args, result, before) -> None:
    after = args[0].stats
    for name in ("lanes", "vector_steps", "occupancy_sum", "columnar_rounds",
                 "real_rounds", "columnar_traces", "ejected_traces",
                 "scalar_probes", "kernel_seconds", "scalar_seconds"):
        tracer.count(f"columnar.{name}", getattr(after, name) - getattr(before, name))


def _count_lane_job(tracer, args, result, state) -> None:
    if result is not None:
        tracer.count("columnar.jobs", 1)


def _count_claim(tracer, args, result, state) -> None:
    tracer.count("queue.claimed" if result is not None else "queue.empty_claims", 1)


def _count_shard_bytes(tracer, args, result, state) -> None:
    checkpoint, shard_index = args[0], args[1]
    tracer.count("checkpoint.bytes_written",
                 checkpoint.shard_path(shard_index).stat().st_size)


def _time_queue_lock(tracer, args, result, state) -> None:
    queue = args[0]
    queue._lock = _TimedLock(queue._lock, tracer)


class _TimedLock:
    """Lock proxy that adds the time spent acquiring to ``queue.lock_wait_s``."""

    def __init__(self, lock, tracer: "Tracer"):
        self._lock = lock
        self._tracer = tracer

    def acquire(self, *args, **kwargs):
        began = time.perf_counter()
        acquired = self._lock.acquire(*args, **kwargs)
        self._tracer.count("queue.lock_wait_s", time.perf_counter() - began)
        return acquired

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


TARGETS: tuple[Target, ...] = (
    # web: population generation and the page-searching crawler
    Target("web.generate", "repro.web.population", "ServerPopulation.generate"),
    Target("web.search", "repro.web.crawler", "PageSearchTool.search"),
    # core.gather: MSS ladder (imported by name into the census) and the
    # scalar probe path
    Target("gather.mss_negotiate", "repro.core.gather", "negotiate_probe_mss"),
    Target("gather.mss_negotiate", "repro.core.census", "negotiate_probe_mss"),
    Target("gather.scalar_probe", "repro.core.gather", "TraceGatherer.gather_probe"),
    # core.columnar: the cohort engine and the jobs its lanes hand it
    Target("columnar.run", "repro.core.columnar", "ColumnarProbeEngine.run",
           before=_columnar_stats_before, after=_count_columnar),
    Target("columnar.next_job", "repro.core.columnar", "SingleProbeLane.next_job",
           after=_count_lane_job),
    Target("columnar.next_job", "repro.core.columnar", "LadderLane.next_job",
           after=_count_lane_job),
    Target("columnar.next_job", "repro.core.training", "_PairLane.next_job",
           after=_count_lane_job),
    # tcp: the sender entry points
    *(Target("tcp.sender", "repro.tcp.connection", f"TcpSender.{name}")
      for name in SENDER_ENTRY_POINTS),
    # core.features, core.classifier, ml
    Target("features.extract", "repro.core.features", "FeatureExtractor.extract"),
    Target("classifier.classify", "repro.core.classifier",
           "CaaiClassifier.classify_vectors", after=_count_vectors),
    Target("ml.fit", "repro.ml.random_forest", "RandomForestClassifier.fit"),
    # core.training
    Target("training.build", "repro.core.training", "TrainingSetBuilder.build_examples"),
    # core.checkpoint
    Target("checkpoint.write_shard", "repro.core.checkpoint",
           "CensusCheckpoint.write_shard", after=_count_shard_bytes),
    Target("checkpoint.merge", "repro.core.checkpoint", "CensusCheckpoint.merge_report"),
    # serving.queue: claims and lease bookkeeping; every queue gets a timed lock
    Target("queue.claim", "repro.serving.queue", "WorkQueue.claim", after=_count_claim),
    Target("queue.heartbeat", "repro.serving.queue", "WorkQueue.heartbeat"),
    Target("queue.finish", "repro.serving.queue", "WorkQueue.finish"),
    Target("queue.init", "repro.serving.queue", "WorkQueue.__init__",
           after=_time_queue_lock),
    # serving.orchestrator: each worker's loop and the measuring inside it
    Target("orchestrator.worker", "repro.serving.orchestrator",
           "CensusOrchestrator._worker_loop"),
    Target("orchestrator.measure", "repro.core.census", "CensusRunner.measure_indices"),
    # serving.artifact: artifact loads (imported by name into the service)
    Target("artifact.load", "repro.serving.artifact", "load_model"),
    Target("artifact.load", "repro.serving.artifact", "timed_load"),
    Target("artifact.load", "repro.serving.service", "timed_load"),
    # parallel: the probe-phase envelope
    Target("parallel.map", "repro.parallel", "ParallelExecutor.map"),
)

#: Per-layer metrics every traced run reports (``LAYER_METRICS[name] = unit``),
#: whether or not the workload touches the layer.
LAYER_METRICS: dict[str, str] = {
    "web.generate_s": "s", "web.search_calls": "count", "web.search_s": "s",
    "gather.mss_negotiate_calls": "count", "gather.mss_negotiate_s": "s",
    "gather.scalar_probe_calls": "count", "gather.scalar_probe_s": "s",
    "columnar.run_s": "s", "columnar.kernel_s": "s", "columnar.scalar_s": "s",
    "columnar.real_round_share": "share", "columnar.occupancy": "lanes",
    "columnar.eject_rate": "share", "columnar.scalar_probe_share": "share",
    "tcp.sender_calls": "count", "tcp.sender_s": "s",
    "features.extract_calls": "count", "features.extract_s": "s",
    "classifier.vectors": "count", "classifier.classify_s": "s",
    "ml.fit_s": "s",
    "training.probes_attempted": "count", "training.usable_ratio": "share",
    "checkpoint.write_shard_calls": "count", "checkpoint.write_shard_s": "s",
    "checkpoint.bytes_written": "bytes", "checkpoint.merge_s": "s",
    "queue.claim_calls": "count", "queue.empty_claims": "count",
    "queue.claim_s": "s", "queue.lock_wait_s": "s", "queue.committed_ratio": "share",
    "orchestrator.measure_s": "s", "orchestrator.idle_s": "s",
    "orchestrator.first_result_s": "s",
    "artifact.load_s": "s",
    "parallel.map_s": "s",
}

#: Layers whose self time is reported as ``<layer>.self_s``.
LAYERS = ("web", "gather", "columnar", "tcp", "features", "classifier", "ml",
          "training", "checkpoint", "queue", "orchestrator", "artifact", "parallel")
LAYER_METRICS.update({f"{layer}.self_s": "s" for layer in LAYERS})


def _resolve(target: Target):
    """``(owner, name)`` of a target, or ``None`` when it no longer exists."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    """Context manager that patches :data:`TARGETS` and records spans."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self._targets = targets
        self._saved: list[tuple[object, str, object, bool]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._count_lock = threading.Lock()
        #: ``(span_id, parent_id, group, start, end)`` in completion order.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = {}

    # ------------------------------------------------------------ patching
    def __enter__(self) -> "Tracer":
        for target in self._targets:
            resolved = _resolve(target)
            if resolved is None:
                continue
            owner, name = resolved
            own = isinstance(owner, type) and name in owner.__dict__
            original = owner.__dict__[name] if own else getattr(owner, name)
            self._saved.append((owner, name, original,
                                own or not isinstance(owner, type)))
            setattr(owner, name, self._wrap(target, getattr(owner, name)))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, original, restore = self._saved.pop()
            if restore:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, original):
        tracer = self
        group, before, after = target.group, target.before, target.after

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == group:
                return original(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            state = before(tracer, args) if before else None
            stack.append((span_id, group))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, group, start, end))
            if after is not None:
                after(tracer, args, result, state)
            return result

        traced.__wrapped__ = original
        return traced

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` (thread-safe)."""
        with self._count_lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------ reporting
    def group_totals(self) -> dict[str, tuple[int, float, float]]:
        """``group -> (calls, total seconds, self seconds)`` over all spans."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, list] = {}
        for span_id, _, group, start, end in self.spans:
            entry = totals.setdefault(group, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += (end - start) - child_time.get(span_id, 0.0)
        return {group: tuple(entry) for group, entry in totals.items()}

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of :data:`LAYER_METRICS` the spans and counters give.

        ``training.*`` comes from the workload, which owns the examples;
        the caller merges it in.
        """
        totals = self.group_totals()
        c = self.counters

        def calls(group):
            return totals.get(group, (0, 0.0, 0.0))[0]

        def seconds(group):
            return totals.get(group, (0, 0.0, 0.0))[1]

        def share(part, whole):
            return part / whole if whole else 0.0

        rounds = c.get("columnar.columnar_rounds", 0) + c.get("columnar.real_rounds", 0)
        jobs = c.get("columnar.jobs", 0)
        claimed = c.get("queue.claimed", 0)
        metrics = {
            "web.generate_s": seconds("web.generate"),
            "web.search_calls": calls("web.search"),
            "web.search_s": seconds("web.search"),
            "gather.mss_negotiate_calls": calls("gather.mss_negotiate"),
            "gather.mss_negotiate_s": seconds("gather.mss_negotiate"),
            "gather.scalar_probe_calls": calls("gather.scalar_probe"),
            "gather.scalar_probe_s": seconds("gather.scalar_probe"),
            "columnar.run_s": seconds("columnar.run"),
            "columnar.kernel_s": c.get("columnar.kernel_seconds", 0.0),
            "columnar.scalar_s": c.get("columnar.scalar_seconds", 0.0),
            "columnar.real_round_share": share(c.get("columnar.real_rounds", 0), rounds),
            "columnar.occupancy": share(c.get("columnar.occupancy_sum", 0),
                                        c.get("columnar.vector_steps", 0)),
            "columnar.eject_rate": share(
                c.get("columnar.ejected_traces", 0),
                c.get("columnar.ejected_traces", 0) + c.get("columnar.columnar_traces", 0)),
            "columnar.scalar_probe_share": share(c.get("columnar.scalar_probes", 0), jobs),
            "tcp.sender_calls": calls("tcp.sender"),
            "tcp.sender_s": seconds("tcp.sender"),
            "features.extract_calls": calls("features.extract"),
            "features.extract_s": seconds("features.extract"),
            "classifier.vectors": c.get("classifier.vectors", 0),
            "classifier.classify_s": seconds("classifier.classify"),
            "ml.fit_s": seconds("ml.fit"),
            "checkpoint.write_shard_calls": calls("checkpoint.write_shard"),
            "checkpoint.write_shard_s": seconds("checkpoint.write_shard"),
            "checkpoint.bytes_written": c.get("checkpoint.bytes_written", 0),
            "checkpoint.merge_s": seconds("checkpoint.merge"),
            "queue.claim_calls": calls("queue.claim"),
            "queue.empty_claims": c.get("queue.empty_claims", 0),
            "queue.claim_s": seconds("queue.claim"),
            "queue.lock_wait_s": c.get("queue.lock_wait_s", 0.0),
            "queue.committed_ratio": share(calls("checkpoint.write_shard"), claimed),
            "orchestrator.measure_s": seconds("orchestrator.measure"),
            # A worker's own time, outside every traced call it makes, is
            # polling, sleeping and waiting on the queue lock.
            "orchestrator.idle_s": totals.get("orchestrator.worker", (0, 0.0, 0.0))[2],
            "artifact.load_s": seconds("artifact.load"),
            "parallel.map_s": seconds("parallel.map"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                self_s for group, (_, _, self_s) in totals.items()
                if group.split(".")[0] == layer)
        return metrics

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((start for _, _, _, start, _ in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, group, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": group,
                                         "start": round(start - origin, 7),
                                         "end": round(end - origin, 7)}) + "\n")
