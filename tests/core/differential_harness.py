"""Shared machinery of the cross-tier differential test harness.

The repository carries two probe-execution tiers, both on segment blocks:
the scalar per-ACK engine (reached through
:func:`tests.conftest.scalar_engine`), which is the executable spec, and the
batched ACK engine, which is production. The batched engine
must be an invisible optimisation of the scalar one. The parity test
matrices cover hand-picked scenarios; this harness adds *breadth*: seeded
random draws over (algorithm x network condition x server quirk x probe
seed) are replayed through both tiers and must produce bit-identical traces
**and** leave the probe's random stream in the exact same state.

The corpus is a pure function of ``(count, master_seed)`` — no wall clock,
no global state — so the committed ``differential_corpus.json`` can be
regenerated and byte-compared by a test (drift in the generator is caught
immediately), and ``pytest --fuzz N`` can draw fresh cases beyond the
committed set from any ``--fuzz-seed``.

Agreement between the tiers alone would not notice both drifting
together, so ``differential_expected.json`` pins every committed case to a
fixed point: one :func:`case_digest` per case, first taken from the
per-packet scalar engine the block engines replaced. Both tiers must
reproduce it, which pins the lossy, F-RTO and quirk cases the per-family
goldens (ideal path only) do not reach. After an intentional behaviour
change, regenerate it from the scalar tier with::

    PYTHONPATH=src python -m tests.core.differential_harness --regenerate
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import pathlib
import sys

import numpy as np

from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.tcp.registry import ALL_ALGORITHM_NAMES
from tests.conftest import make_synthetic_server, numpy_versions, scalar_engine

#: The two probe-execution tiers the harness compares, and how each is
#: entered: the batched engine needs nothing.
TIERS = ("scalar", "blocks")
_TIER_ENGINES = {"scalar": scalar_engine, "blocks": contextlib.nullcontext}

#: Seed of the committed corpus (see ``differential_corpus.json``).
CORPUS_SEED = 20110621  # the source paper's conference date

#: Size of the committed corpus.
CORPUS_SIZE = 200

CORPUS_PATH = pathlib.Path(__file__).parent / "differential_corpus.json"

EXPECTED_PATH = pathlib.Path(__file__).parent / "differential_expected.json"


def build_corpus(count: int, master_seed: int) -> list[dict]:
    """Draw ``count`` differential cases, purely from ``master_seed``.

    Every registry algorithm appears at least ``count // len(registry)``
    times (cases cycle the registry), and the remaining axes — probe seed,
    ``w_timeout``, network condition, F-RTO, initial window and server
    quirks — are seeded draws. Floats are rounded so the JSON corpus is
    tidy; the rounding is part of the function, so regeneration is exact.

    Args:
        count: Number of cases to draw.
        master_seed: Seed of the case-drawing stream.

    Returns:
        JSON-native case dicts accepted by :func:`run_tier`.
    """
    rng = np.random.default_rng(master_seed)
    cases = []
    for index in range(count):
        case = {
            "algorithm": ALL_ALGORITHM_NAMES[index % len(ALL_ALGORITHM_NAMES)],
            "seed": int(rng.integers(0, 2 ** 31)),
            "w_timeout": int(rng.choice([64, 64, 64, 64, 128, 256])),
            "rtt": round(float(rng.uniform(0.05, 0.5)), 4),
            "rtt_std": (round(float(rng.uniform(0.005, 0.08)), 4)
                        if rng.random() < 0.5 else 0.0),
            "loss": (round(float(rng.uniform(0.001, 0.05)), 4)
                     if rng.random() < 0.5 else 0.0),
            "frto": bool(rng.random() < 0.25),
            "initial_window": int(rng.integers(2, 5)),
        }
        if rng.random() < 0.2:
            case["initial_ssthresh"] = round(float(rng.uniform(20.0, 60.0)), 2)
        if rng.random() < 0.2:
            case["send_buffer_packets"] = round(float(rng.uniform(60.0,
                                                                  120.0)), 2)
        cases.append(case)
    return cases


def load_corpus() -> list[dict]:
    """Read the committed corpus file.

    Returns:
        The case dicts of ``differential_corpus.json``.
    """
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def _build_server(case: dict):
    sender_kwargs = {}
    for field in ("initial_ssthresh", "send_buffer_packets"):
        if field in case:
            sender_kwargs[field] = case[field]
    server = make_synthetic_server(case["algorithm"],
                                   initial_window=case["initial_window"],
                                   **sender_kwargs)
    server.frto = case["frto"]
    return server


def run_tier(case: dict, tier: str):
    """Run one case's probe on one tier.

    Args:
        case: A case dict from :func:`build_corpus`.
        tier: One of :data:`TIERS`.

    Returns:
        ``(probe, rng_state)`` — the gathered probe and the probe stream's
        final ``bit_generator.state``.
    """
    condition = NetworkCondition(average_rtt=case["rtt"],
                                 rtt_std=case["rtt_std"],
                                 loss_rate=case["loss"])
    config = GatherConfig(w_timeout=case["w_timeout"], mss=100)
    rng = np.random.default_rng(case["seed"])
    with _TIER_ENGINES[tier]():
        probe = TraceGatherer(config).gather_probe(_build_server(case),
                                                   condition, rng)
    return probe, rng.bit_generator.state


def case_digest(probe, rng_state: dict) -> str:
    """sha256 of everything :func:`assert_case_parity` compares.

    Covers every :class:`~repro.core.trace.WindowTrace` field of both
    environments (window samples, invalid reason, ACK-loss events, ...) and
    the probe stream's final ``bit_generator.state``. Floats serialise via
    ``repr``, so the digest is exact.

    Args:
        probe: The gathered :class:`~repro.core.trace.ProbeTrace`.
        rng_state: The probe stream's final ``bit_generator.state``.

    Returns:
        The hex digest.
    """
    traces = []
    for trace in probe.traces():
        fields = {}
        for item in dataclasses.fields(trace):
            value = getattr(trace, item.name)
            fields[item.name] = (value.value if isinstance(value, enum.Enum)
                                 else value)
        traces.append(fields)
    blob = json.dumps({"traces": traces, "rng_state": rng_state},
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_expected() -> list[str]:
    """Read the committed per-case digests (corpus order).

    Returns:
        One :func:`case_digest` per case of ``differential_corpus.json``.
    """
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def regenerate_expected() -> None:
    """Rewrite ``differential_expected.json`` from the scalar tier."""
    digests = [case_digest(*run_tier(case, "scalar")) for case in load_corpus()]
    EXPECTED_PATH.write_text(json.dumps(digests, indent=1) + "\n",
                             encoding="utf-8")
    print(f"wrote {len(digests)} digests to {EXPECTED_PATH}")


def assert_case_parity(case: dict, expected: str | None = None) -> None:
    """Assert both tiers agree on one case, traces and rng stream.

    The scalar tier is the reference; the other tier must match its traces
    element by element (window samples, invalid reason, ACK-loss events)
    and leave the probe's random stream in the identical state. With
    ``expected``, every tier's :func:`case_digest` must also equal it.

    Args:
        case: A case dict from :func:`build_corpus`.
        expected: The case's committed digest, or ``None`` (fresh fuzz
            cases have none).

    Raises:
        AssertionError: On any divergence, naming the tier and the case.
    """
    reference, reference_state = run_tier(case, "scalar")
    if expected is not None:
        assert case_digest(reference, reference_state) == expected, (
            f"tier 'scalar' drifted from differential_expected.json on "
            f"case {case!r} ({numpy_versions()})")
    for tier in TIERS[1:]:
        probe, state = run_tier(case, tier)
        context = f"tier {tier!r} diverged from scalar on case {case!r}"
        assert state == reference_state, f"rng stream: {context}"
        ref_traces = list(reference.traces())
        tier_traces = list(probe.traces())
        assert len(tier_traces) == len(ref_traces), f"trace count: {context}"
        for ref_trace, tier_trace in zip(ref_traces, tier_traces):
            assert tier_trace.pre_timeout == ref_trace.pre_timeout, context
            assert tier_trace.post_timeout == ref_trace.post_timeout, context
            assert (tier_trace.invalid_reason
                    is ref_trace.invalid_reason), context
            assert (tier_trace.ack_loss_events
                    == ref_trace.ack_loss_events), context
            assert tier_trace == ref_trace, context
        if expected is not None:
            assert case_digest(probe, state) == expected, (
                f"tier {tier!r} drifted from differential_expected.json on "
                f"case {case!r} ({numpy_versions()})")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit("usage: PYTHONPATH=src python -m "
                         "tests.core.differential_harness --regenerate")
    regenerate_expected()
