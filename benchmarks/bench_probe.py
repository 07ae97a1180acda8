"""Probe-engine benchmark: the batched ACK engine against the per-ACK one.

Times the CAAI probe hot path -- trace gathering, on a clean path and
behind an ACK-thinning middlebox -- on the two ACK engines (both on segment
blocks: the batched production engine and the scalar per-ACK reference
forced by ``REPRO_ACK_BATCH=0``), verifies they produce bit-identical
traces, and writes ``BENCH_probe.json``::

    PYTHONPATH=src python benchmarks/bench_probe.py [output.json]

Besides the engine ratios the benchmark records a per-phase breakdown
(emit / ACK engine / gather bookkeeping) and the number of Segment objects
and SegmentBlock records materialised per probe, so a future devectorisation
regression is attributable to the phase that caused it. It fails below
either engine-ratio tripwire, on a trace mismatch between the engines and
on any materialised Segment object. End-to-end census and training-set
throughput is measured by ``perfbench/`` in repeated, paired runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.scenarios.middlebox import MiddleboxConfig, MiddleboxServer
from repro.tcp.connection import ACK_BATCH_ENV, SenderConfig, TcpSender
from repro.tcp.packet import Segment, SegmentBlock
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS

#: CI tripwire: the batched ACK engine must beat the scalar per-ACK engine
#: by at least this factor on the probe workload. A 2-core development
#: machine measures ~20-22x; the threshold sits far below that so loaded CI
#: runners do not flake, while a fast path that silently stopped engaging
#: (~1x) still fails loudly.
TARGET_ACK_SPEEDUP = 2.5
#: The ``ack-manipulated`` scenario pack's middlebox: every 4th ACK (plus a
#: round's last) reaches the sender, 50 ms late.
THINNING_MIDDLEBOX = MiddleboxConfig(thin_every=4, stretch_seconds=0.05)
#: CI tripwire for the thinned probe workload. Its surviving ACKs each cover
#: four packets (stretch-ACK runs); an engine that batches only per-packet
#: ACKs runs every one of them per-ACK and measures ~0.9x, while batching
#: them measures ~3.8x on a 2-core development machine.
TARGET_THINNED_ACK_SPEEDUP = 1.5


def _make_server(algorithm: str):
    from repro.core.gather import SyntheticServer

    return SyntheticServer(algorithm_name=algorithm,
                           sender_config_factory=lambda mss: SenderConfig(
                               mss=mss, initial_window=3))


def probe_workload(middlebox: MiddleboxConfig | None = None) -> list:
    """One full probe per identifiable algorithm at w_timeout = 512.

    With a ``middlebox`` every server's ACK path crosses that chain.
    """
    traces = []
    for index, algorithm in enumerate(IDENTIFIABLE_ALGORITHMS):
        server = _make_server(algorithm)
        if middlebox is not None:
            server = MiddleboxServer(server, middlebox)
        gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))
        traces.append(gatherer.gather_probe(
            server, NetworkCondition.ideal(),
            np.random.default_rng(100 + index)))
    return traces


def thinned_probe_workload() -> list:
    """:func:`probe_workload` behind :data:`THINNING_MIDDLEBOX`."""
    return probe_workload(THINNING_MIDDLEBOX)


def timed(function):
    start = time.perf_counter()
    value = function()
    return time.perf_counter() - start, value


def with_engine(batch: bool, function):
    os.environ[ACK_BATCH_ENV] = "1" if batch else "0"
    try:
        return timed(function)
    finally:
        os.environ[ACK_BATCH_ENV] = "1"


def assert_trace_parity(label: str, left, right) -> None:
    for probe_left, probe_right in zip(left, right):
        if (probe_left.trace_a != probe_right.trace_a
                or probe_left.trace_b != probe_right.trace_b):
            raise SystemExit(f"FAIL: {label} traces diverge")


def compare_engines(label: str, workload) -> dict:
    """Paired timings of ``workload`` on both ACK engines, with a parity gate.

    Three rounds, each timing the batched then the per-ACK engine; the
    speedup is the median of the per-round ratios.
    """
    ratios = []
    batched_best = scalar_best = float("inf")
    for _ in range(3):
        batched_seconds, batched_traces = with_engine(True, workload)
        scalar_seconds, scalar_traces = with_engine(False, workload)
        assert_trace_parity(label, batched_traces, scalar_traces)
        ratios.append(scalar_seconds / batched_seconds)
        batched_best = min(batched_best, batched_seconds)
        scalar_best = min(scalar_best, scalar_seconds)
    probes = len(batched_traces)
    return {"probes_per_second": round(probes / batched_best, 2),
            "probes_per_second_scalar": round(probes / scalar_best, 2),
            "speedup": round(sorted(ratios)[len(ratios) // 2], 2),
            "speedup_best": round(max(ratios), 2)}


# --------------------------------------------------------------- breakdown
#: Sender entry points whose wall time counts as "ACK engine + emit". The
#: depth guard keeps nested calls (``on_ack_ladder`` -> ``on_ack_packet``)
#: from double-counting.
_SENDER_ENTRY_POINTS = ("start", "on_ack", "on_ack_packet", "on_ack_ladder",
                        "on_timer")
_EMIT_POINTS = ("_emit_range", "_retransmit")


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


def phase_breakdown() -> dict:
    """One instrumented probe-workload pass, split into phases per probe."""
    probes = len(IDENTIFIABLE_ALGORITHMS)
    with instrumented() as timers:
        total_seconds, _ = with_engine(True, probe_workload)
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
    results: dict = {}
    probes = len(IDENTIFIABLE_ALGORITHMS)

    # ---- probe throughput on both ACK engines, with a parity gate ---------
    print("timing probe workload (batched vs per-ACK) ...", flush=True)
    clean = compare_engines("batched vs per-ACK", probe_workload)
    results["probe_workload_probes"] = probes
    results["probes_per_second"] = clean["probes_per_second"]
    results["probes_per_second_scalar"] = clean["probes_per_second_scalar"]
    results["ack_engine_speedup"] = clean["speedup"]
    results["ack_engine_speedup_best"] = clean["speedup_best"]

    print("timing thinned-ACK probe workload (batched vs per-ACK) ...",
          flush=True)
    thinned = compare_engines("thinned-ACK batched vs per-ACK",
                              thinned_probe_workload)
    results["thinned_probes_per_second"] = thinned["probes_per_second"]
    results["thinned_probes_per_second_scalar"] = thinned["probes_per_second_scalar"]
    results["thinned_ack_engine_speedup"] = thinned["speedup"]
    results["thinned_ack_engine_speedup_best"] = thinned["speedup_best"]

    # ---- per-phase breakdown (attributes future regressions) --------------
    print("profiling per-phase breakdown ...", flush=True)
    results["phases_blocks"] = phase_breakdown()

    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"\nACK engine speedup on the probe workload: {clean['speedup']:.2f}x"
          f" (behind the thinning middlebox: {thinned['speedup']:.2f}x)")
    failures = []
    if clean["speedup"] < TARGET_ACK_SPEEDUP:
        failures.append(f"ack_engine_speedup {clean['speedup']:.2f}x is below "
                        f"the {TARGET_ACK_SPEEDUP:.1f}x tripwire")
    if thinned["speedup"] < TARGET_THINNED_ACK_SPEEDUP:
        failures.append(f"thinned_ack_engine_speedup {thinned['speedup']:.2f}x "
                        f"is below the {TARGET_THINNED_ACK_SPEEDUP:.1f}x tripwire")
    if results["phases_blocks"]["segment_objects_per_probe"] > 0:
        failures.append("the block pipeline materialised Segment objects")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print(f"wrote {output_path}")


if __name__ == "__main__":
    main()
