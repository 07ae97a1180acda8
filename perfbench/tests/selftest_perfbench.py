"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/tests/selftest_perfbench.py

They run every workload at the tiny scale, so they take about a minute.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _current(target):
    resolved = tracer._resolve(target)
    if resolved is None:
        return None
    owner, name = resolved
    return owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name)


def test_tracer_restores_every_patched_attribute():
    before = [(target, _current(target)) for target in tracer.TARGETS]
    patched = [target for target, original in before if original is not None]
    assert patched, "the tracer found nothing to patch"
    with tracer.Tracer():
        for target in patched:
            assert _current(target) is not dict(before)[target]
    for target, original in before:
        assert _current(target) is original, target


def test_tracer_restores_after_an_exception():
    target = tracer.Target("web.search", "repro.web.crawler", "PageSearchTool.search")
    original = _current(target)
    with pytest.raises(RuntimeError):
        with tracer.Tracer((target,)):
            raise RuntimeError("boom")
    assert _current(target) is original


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_pass_reproduces_the_untraced_digest(workload, tmp_path):
    ctx = wl.prepare(workload, wl.TINY, tmp_path, tmp_path / "cache")
    untraced = wl.PASSES[workload](ctx, 5)
    with tracer.Tracer():
        traced = wl.PASSES[workload](ctx, 5)
    assert traced.digest == untraced.digest


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload, tmp_path):
    result = run.run_workload(workload, wl.DEFAULT_SEED, 0, False,
                              scale=wl.TINY, root=tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == run.END_TO_END[name]


#: Layers each workload must not touch (they read zero in its traced run).
UNTOUCHED = {
    "train": ("web.", "checkpoint.", "queue.", "orchestrator.", "artifact."),
    "census": ("checkpoint.", "queue.", "orchestrator.", "ml.", "training."),
    "census-hostile": ("columnar.kernel_s", "checkpoint.", "queue.", "ml."),
    "serve": ("ml.", "training."),
}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(workload, tmp_path):
    result = run.run_workload(workload, 5, 0, True, scale=wl.TINY, root=tmp_path)
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(tracer.LAYER_METRICS) <= set(metrics)
    assert "trace.overhead_share" in metrics
    for name, metric in metrics.items():
        if name.startswith(UNTOUCHED[workload]):
            assert metric["value"] == 0, name
    assert (tmp_path / run.CACHE_DIR_NAME / f"spans-{workload}.jsonl").stat().st_size > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
