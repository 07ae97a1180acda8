"""The CAAI pipeline benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload census --seed 7 --seconds 15 --trace 0

``--workload`` is one of ``train``, ``census``, ``census-hostile``,
``serve`` (see ``workloads.py``). The run

1. fits what it pays once (the census model) and makes a warm-up pass on
   :data:`workloads.DEFAULT_SEED`, whose output digest must equal the pinned
   one;
2. times back-to-back set-ups, then makes passes on ``--seed`` until
   ``--seconds`` have passed (at least :data:`MIN_PASSES`), checking that
   every pass produces the same digest;
3. prints each metric with its unit, then, as its last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
passes, in reference seconds (``calibration.py``; the calibration loop is
timed before every pass). With ``--trace 1`` untraced and traced passes
alternate; the metrics
are the per-layer ones from the traced passes (``tracer.py``), plus the
tracing overhead. The spans of the last traced pass are written to
``.perfbench_cache/spans-<workload>.jsonl``.

The benchmark imports ``repro`` from ``src/`` next to this directory and
nowhere else; without it the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes: the cached reference training set, per-run
#: scratch directories (model artifact, checkpoints) and span files.
CACHE_DIR_NAME = ".perfbench_cache"
#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3

#: End-to-end metrics and their units (every workload reports all of them).
END_TO_END = {
    "setup_s": "s",
    "servers_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale=None, root: Path = ROOT) -> dict:
    """Run one workload and return the result object the command prints.

    ``repro`` must be importable (``main`` puts ``src/`` on the path).
    """
    import workloads as wl

    cache_dir = root / CACHE_DIR_NAME
    work_dir = cache_dir / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, scale or wl.FULL, cache_dir, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, scale, cache_dir, work_dir) -> dict:
    import workloads as wl
    from calibration import Calibrator
    from tracer import LAYER_METRICS, Tracer

    problems: list[str] = []
    calibrator = Calibrator()
    ctx = wl.prepare(workload, scale, work_dir, cache_dir)

    gc.collect()
    warm = wl.run_pass(ctx, wl.DEFAULT_SEED)
    attempted, failed = warm.attempted, warm.failed
    pinned = wl.PINNED[scale.name]["census" if workload == "serve" else workload]
    if warm.digest != pinned:
        problems.append(f"digest at seed {wl.DEFAULT_SEED} is {warm.digest}, "
                        f"pinned {pinned or '(none)'}")

    setups, factor = calibrator.call(
        lambda: [wl.setup_seconds(ctx, seed) for _ in range(wl.SETUP_REPS)])
    setup_samples = [seconds * factor for seconds in setups]
    #: ``(pass, traced, calibration factor)``
    passes: list[tuple[object, bool, float]] = []
    tracer = None
    modes = (False, True) if trace else (False,)
    began = time.perf_counter()
    rounds = 0
    while rounds < MIN_PASSES or time.perf_counter() - began < seconds:
        rounds += 1
        for traced in modes:
            gc.collect()
            try:
                tracer = Tracer() if traced else None
                result, factor = calibrator.call(wl.run_pass, ctx, seed, tracer)
            except Exception:  # a pass that raises is a failed operation
                traceback.print_exc()
                attempted += 1
                failed += 1
                problems.append(f"a {'traced' if traced else 'untraced'} pass raised")
                continue
            attempted += result.attempted
            failed += result.failed
            passes.append((result, traced, factor))
    if not passes:
        raise RuntimeError("every pass raised; nothing to report")

    digests = {result.digest for result, _, _ in passes}
    if seed == wl.DEFAULT_SEED:
        digests.add(warm.digest)
    if len(digests) != 1:
        problems.append(f"passes on seed {seed} disagree: {sorted(digests)}")
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    for name, floor in wl.QUALITY_FLOORS.get(scale.name, {}).get(workload, {}).items():
        value = passes[0][0].quality[name]
        if value < floor:
            problems.append(f"{name} {value:.3f} is below its floor {floor}")

    untraced = [(p, f) for p, traced, f in passes if not traced]

    def rate(group):
        return _median([p.servers / (p.run_s * f) for p, f in group])

    if trace:
        traced_passes = [(p, f) for p, traced, f in passes if traced]
        metrics = {name: _median([p.layer.get(name, 0) * (f if name.endswith("_s") else 1.0)
                                  for p, f in traced_passes])
                   for name in LAYER_METRICS}
        for name in wl.QUALITY_METRICS:
            metrics[f"quality.{name}"] = passes[0][0].quality[name]
        metrics["trace.overhead_share"] = 1.0 - rate(traced_passes) / rate(untraced)
        units = dict(LAYER_METRICS, **{f"quality.{n}": "share" for n in wl.QUALITY_METRICS},
                     **{"trace.overhead_share": "share"})
        tracer.write_spans(cache_dir / f"spans-{workload}.jsonl")
    else:
        metrics = {
            "setup_s": _median(setup_samples + [p.setup_s * f for p, f in untraced]),
            "servers_per_s": rate(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    print(f"workload {workload}  seed {seed}  scale {scale.name}  "
          f"passes {len(untraced)} untraced, {len(passes) - len(untraced)} traced  "
          f"calibration factor {_median([f for _, _, f in passes]):.3f} "
          "(reference seconds per measured second)")
    print("  quality " + "  ".join(f"{name} {value:.4f}"
                                   for name, value in passes[0][0].quality.items()))
    print("  servers_per_s by pass " + " ".join(
        f"{p.servers / (p.run_s * f):.2f}{'t' if traced else ''}" for p, traced, f in passes))
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]:14.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "census", "census-hostile", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
