"""CI check: the modern families render and the ECN knob engages.

The modern-families extension (BBR, DCTCP, learned-CC) must be strictly
additive. Its byte-level half (a classic-only, zero-ECN census and its
checkpoint files match a frozen pre-extension snapshot) is a tier-1 test:
``tests/test_pinned_bytes.py::TestFrozenClassicCensus``. This script checks
the rest:

1. **Modern families experiment** — the ``modern_families`` registry
   experiment at the smoke profile must compute, and its rendered section
   must contain the extended 17-family confusion matrix and the mixed
   classic+modern census table.
2. **ECN engages** — the default-off knob must actually do something when
   turned on: a DCTCP probe under marking must diverge from RENO's, while
   an unmarked DCTCP probe stays bit-identical to RENO's.

Run it with::

    PYTHONPATH=src python benchmarks/check_modern_families.py
"""

from __future__ import annotations

import numpy as np

from repro.core.gather import GatherConfig, SyntheticServer, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.tcp.connection import SenderConfig


def check_modern_experiment() -> None:
    print("1) modern_families experiment at the smoke profile ...", flush=True)
    import repro.tcp.registry as registry
    from repro.experiments.profiles import profile_by_name
    from repro.experiments.registry import ExperimentContext, get_experiment
    from repro.experiments.resources import ResourcePool

    experiment = get_experiment("modern_families")
    profile = profile_by_name("smoke")
    pool = ResourcePool(profile=profile, executor=None)
    context = ExperimentContext(profile=profile, pool=pool, executor=None)
    payload = experiment.compute(context)
    if payload["metrics"]["n_families"] != 17:
        raise SystemExit("FAIL: expected a 17-family label space, got "
                         f"{payload['metrics']['n_families']}")
    rendered = experiment.render(payload)
    for family in registry.MODERN_ALGORITHMS:
        if family not in rendered:
            raise SystemExit(f"FAIL: {family} missing from the rendered "
                             "confusion matrix")
    if "true \\ predicted" not in rendered or "Identified as" not in rendered:
        raise SystemExit("FAIL: confusion matrix or mixed census table "
                         "did not render")
    print(f"   OK: 17-family matrix and mixed census rendered "
          f"(CV accuracy {payload['metrics']['extended_cv_accuracy']:.1%})")


def check_ecn_engages() -> None:
    print("2) ECN knob: off = RENO-identical, on = diverges ...", flush=True)
    gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))

    def probe(algorithm, mark_rate):
        server = SyntheticServer(
            algorithm_name=algorithm,
            sender_config_factory=lambda mss: SenderConfig(
                mss=mss, initial_window=3))
        condition = NetworkCondition(average_rtt=0.2, rtt_std=0.0,
                                     loss_rate=0.0, ecn_mark_rate=mark_rate)
        rng = np.random.default_rng(41)
        trace = gatherer.gather_probe(server, condition, rng)
        return ([tuple(t.pre_timeout) + tuple(t.post_timeout)
                 for t in trace.traces()], rng.bit_generator.state)

    if probe("dctcp", 0.0) != probe("reno", 0.0):
        raise SystemExit("FAIL: unmarked DCTCP is not bit-identical to RENO")
    if probe("dctcp", 0.3)[0] == probe("reno", 0.3)[0]:
        raise SystemExit("FAIL: DCTCP did not react to ECN marks")
    print("   OK: mark-free DCTCP == RENO (incl. rng stream); marks engage")


def main() -> None:
    check_modern_experiment()
    check_ecn_engages()
    print("all modern-families checks passed")


if __name__ == "__main__":
    main()
