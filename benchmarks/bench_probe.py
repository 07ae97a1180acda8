"""Probe-engine benchmark: the three engine generations against each other.

Times the CAAI probe hot paths -- trace gathering, the 100-server census and
the training-set build -- across the engine generations (scalar per-ACK
objects, batched-ACK objects, segment blocks), verifies the engines produce
bit-identical traces, and writes ``BENCH_probe.json``::

    PYTHONPATH=src python benchmarks/bench_probe.py [output.json]

Besides the end-to-end timings the benchmark records a per-phase breakdown
(emit / ACK engine / gather bookkeeping) and the number of Segment objects
and SegmentBlock records materialised per probe, so a future devectorisation
regression is attributable to the phase that caused it.

The workload matches ``bench_smoke_inference.py``'s small scale (the same
training-set and census configurations). The census and training timings are
single-shot and machine-load sensitive, so they carry no tripwire; the
repeated, paired end-to-end numbers live in ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.core.census import CensusConfig, CensusRunner
from repro.core.classifier import CaaiClassifier
from repro.core.gather import GatherConfig, TraceGatherer
from repro.core.training import TrainingSetBuilder
from repro.net.conditions import NetworkCondition, default_condition_database
from repro.tcp.connection import (
    ACK_BATCH_ENV,
    SEGMENT_BLOCKS_ENV,
    SenderConfig,
    TcpSender,
)
from repro.tcp.packet import Segment, SegmentBlock
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS, create_algorithm
from repro.web.population import PopulationConfig, ServerPopulation

CENSUS_SIZE = 100
N_TREES = 60
#: CI tripwire: the batched ACK engine must beat the scalar engine (both on
#: the object emitter, the historic comparison) by at least this factor.
TARGET_ACK_SPEEDUP = 2.5
#: CI tripwire: the segment-block engine must beat the batched-ACK object
#: engine by at least this factor on the probe workload. The development
#: machine measures ~6x; the threshold sits far below that so loaded CI
#: runners do not flake, while a block path that silently stopped engaging
#: (~1x) still fails loudly.
TARGET_BLOCK_SPEEDUP = 2.5


def _make_server(algorithm: str):
    from repro.core.gather import SyntheticServer

    return SyntheticServer(algorithm_name=algorithm,
                           sender_config_factory=lambda mss: SenderConfig(
                               mss=mss, initial_window=3))


def probe_workload() -> list:
    """One full probe per identifiable algorithm at w_timeout = 512."""
    traces = []
    for index, algorithm in enumerate(IDENTIFIABLE_ALGORITHMS):
        gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))
        traces.append(gatherer.gather_probe(
            _make_server(algorithm), NetworkCondition.ideal(),
            np.random.default_rng(100 + index)))
    return traces


def timed(function):
    start = time.perf_counter()
    value = function()
    return time.perf_counter() - start, value


def with_engine(blocks: bool, batch: bool, function):
    os.environ[SEGMENT_BLOCKS_ENV] = "1" if blocks else "0"
    os.environ[ACK_BATCH_ENV] = "1" if batch else "0"
    try:
        return timed(function)
    finally:
        os.environ[SEGMENT_BLOCKS_ENV] = "1"
        os.environ[ACK_BATCH_ENV] = "1"


def assert_trace_parity(label: str, left, right) -> None:
    for probe_left, probe_right in zip(left, right):
        if (probe_left.trace_a != probe_right.trace_a
                or probe_left.trace_b != probe_right.trace_b):
            raise SystemExit(f"FAIL: {label} traces diverge")


# --------------------------------------------------------------- breakdown
#: Sender entry points whose wall time counts as "ACK engine + emit". The
#: depth guard keeps nested calls (``on_ack_ladder`` -> ``on_ack_packet``,
#: legacy wrappers -> native methods) from double-counting.
_SENDER_ENTRY_POINTS = ("start", "start_native", "on_ack", "on_ack_native",
                        "on_ack_packet", "on_ack_run", "on_ack_run_native",
                        "on_ack_ladder", "on_timer", "on_timer_native")
_EMIT_POINTS = ("_emit_range", "_build_segment")


@contextmanager
def instrumented():
    """Patch the sender and packet classes with counting/timing wrappers."""
    timers = {"sender": 0.0, "emit": 0.0, "segments": 0, "blocks": 0}
    state = {"depth": 0}
    saved = {}

    def timing_wrapper(original, bucket, guarded):
        def wrapper(self, *args, **kwargs):
            if guarded:
                state["depth"] += 1
                if state["depth"] > 1:
                    try:
                        return original(self, *args, **kwargs)
                    finally:
                        state["depth"] -= 1
            start = time.perf_counter()
            try:
                return original(self, *args, **kwargs)
            finally:
                timers[bucket] += time.perf_counter() - start
                if guarded:
                    state["depth"] -= 1
        return wrapper

    def counting_wrapper(original, bucket):
        def wrapper(self):
            timers[bucket] += 1
            original(self)
        return wrapper

    for name in _SENDER_ENTRY_POINTS:
        saved[name] = getattr(TcpSender, name)
        setattr(TcpSender, name, timing_wrapper(saved[name], "sender", True))
    for name in _EMIT_POINTS:
        saved[name] = getattr(TcpSender, name)
        setattr(TcpSender, name, timing_wrapper(saved[name], "emit", False))
    saved["segment_init"] = Segment.__post_init__
    Segment.__post_init__ = counting_wrapper(saved["segment_init"], "segments")
    saved["block_init"] = SegmentBlock.__post_init__
    SegmentBlock.__post_init__ = counting_wrapper(saved["block_init"], "blocks")
    try:
        yield timers
    finally:
        for name in _SENDER_ENTRY_POINTS + _EMIT_POINTS:
            setattr(TcpSender, name, saved[name])
        Segment.__post_init__ = saved["segment_init"]
        SegmentBlock.__post_init__ = saved["block_init"]


def phase_breakdown(blocks: bool) -> dict:
    """One instrumented probe-workload pass, split into phases per probe."""
    probes = len(IDENTIFIABLE_ALGORITHMS)
    with instrumented() as timers:
        total_seconds, _ = with_engine(blocks, True, probe_workload)
    emit = timers["emit"]
    ack_engine = max(timers["sender"] - emit, 0.0)
    gather = max(total_seconds - timers["sender"], 0.0)
    return {
        "emit_seconds": round(emit, 3),
        "ack_engine_seconds": round(ack_engine, 3),
        "gather_bookkeeping_seconds": round(gather, 3),
        "segment_objects_per_probe": round(timers["segments"] / probes, 1),
        "block_records_per_probe": round(timers["blocks"] / probes, 1),
    }


def main() -> None:
    output_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_probe.json"
    results: dict = {"scale": "small", "census_size": CENSUS_SIZE}
    probes = len(IDENTIFIABLE_ALGORITHMS)

    # ---- probe throughput across the three engines, with parity gates -----
    print("timing probe workload (blocks vs objects vs scalar) ...", flush=True)
    block_ratios, ack_ratios = [], []
    block_best = object_best = scalar_best = float("inf")
    block_traces = object_traces = scalar_traces = None
    for _ in range(3):
        block_seconds, block_traces = with_engine(True, True, probe_workload)
        object_seconds, object_traces = with_engine(False, True, probe_workload)
        scalar_seconds, scalar_traces = with_engine(False, False, probe_workload)
        block_ratios.append(object_seconds / block_seconds)
        ack_ratios.append(scalar_seconds / object_seconds)
        block_best = min(block_best, block_seconds)
        object_best = min(object_best, object_seconds)
        scalar_best = min(scalar_best, scalar_seconds)
    assert_trace_parity("block vs object", block_traces, object_traces)
    assert_trace_parity("object vs scalar", object_traces, scalar_traces)
    block_speedup = sorted(block_ratios)[len(block_ratios) // 2]
    ack_speedup = sorted(ack_ratios)[len(ack_ratios) // 2]
    results["probe_workload_probes"] = probes
    results["probes_per_second"] = round(probes / block_best, 2)
    results["probes_per_second_objects"] = round(probes / object_best, 2)
    results["probes_per_second_scalar"] = round(probes / scalar_best, 2)
    results["segment_block_speedup"] = round(block_speedup, 2)
    results["segment_block_speedup_best"] = round(max(block_ratios), 2)
    results["ack_engine_speedup"] = round(ack_speedup, 2)
    results["ack_engine_speedup_best"] = round(max(ack_ratios), 2)

    # ---- per-phase breakdown (attributes future regressions) --------------
    print("profiling per-phase breakdown ...", flush=True)
    results["phases_blocks"] = phase_breakdown(blocks=True)
    results["phases_objects"] = phase_breakdown(blocks=False)

    # ---- ACK-path microbenchmark: one sender, one long slow-start round ---
    print("timing raw ACK run (1024-ACK round) ...", flush=True)

    def ack_run(use_run: bool) -> None:
        sender = TcpSender(create_algorithm("cubic-b"),
                           SenderConfig(mss=100, initial_window=2))
        sender.enqueue_bytes(50_000_000)
        now, segments = 0.0, sender.start(0.0)
        while segments and len(segments) <= 1024:
            now += 1.0
            acks = [seg.end_seq for seg in segments]
            if use_run:
                segments = sender.on_ack_run(acks, now)
            else:
                nxt = []
                for ack in acks:
                    nxt.extend(sender.on_ack(ack, now))
                segments = nxt

    run_seconds, _ = timed(lambda: [ack_run(True) for _ in range(20)])
    loop_seconds, _ = timed(lambda: [ack_run(False) for _ in range(20)])
    results["ack_run_speedup"] = round(loop_seconds / run_seconds, 2)

    # ---- training set (same workload as bench_smoke_inference) -----------
    print("building training set (block engine) ...", flush=True)
    def build_training_set():
        builder = TrainingSetBuilder(
            conditions_per_pair=6, seed=7,
            condition_database=default_condition_database(size=1000, seed=2010))
        return builder.build_dataset()

    training_seconds, training_set = timed(build_training_set)
    results["training_set_seconds"] = round(training_seconds, 3)
    results["training_set_rows"] = len(training_set)

    # ---- census (same workload as bench_smoke_inference) ------------------
    print("running census ...", flush=True)
    classifier = CaaiClassifier(n_trees=N_TREES, seed=3)
    classifier.train(training_set)

    def run_census():
        population = ServerPopulation(PopulationConfig(size=CENSUS_SIZE,
                                                       seed=2011))
        population.generate()
        return CensusRunner(classifier, CensusConfig(seed=99)).run(population)

    census_seconds, report = timed(run_census)
    results["census_seconds"] = round(census_seconds, 3)
    results["census_valid_fraction"] = round(report.valid_fraction(), 3)

    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nblock engine speedup on the probe workload: {block_speedup:.2f}x")
    print(f"ACK engine speedup (object emitter): {ack_speedup:.2f}x")
    failures = []
    if block_speedup < TARGET_BLOCK_SPEEDUP:
        failures.append(f"segment_block_speedup {block_speedup:.2f}x is below "
                        f"the {TARGET_BLOCK_SPEEDUP:.1f}x tripwire")
    if ack_speedup < TARGET_ACK_SPEEDUP:
        failures.append(f"ack_engine_speedup {ack_speedup:.2f}x is below "
                        f"the {TARGET_ACK_SPEEDUP:.1f}x tripwire")
    if results["phases_blocks"]["segment_objects_per_probe"] > 0:
        failures.append("the block pipeline materialised Segment objects")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print(f"wrote {output_path}")


if __name__ == "__main__":
    main()
