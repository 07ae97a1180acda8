"""Table-driven per-family conformance suite.

This generalizes ``tests/tcp/algo_harness.py`` (which drives one algorithm
against a bare :class:`CongestionState`) to full-stack conformance: every
registry family, classic and modern, must pass the same three checks:

1. **Engine parity under loss** — probing a server built on the family over
   a lossy path produces bit-identical traces whether the sender runs the
   batched :meth:`on_ack_ladder` engine or the scalar per-ACK engine
   (:func:`tests.conftest.scalar_engine`). The ideal-path comparison is
   ``tests/core/test_gather_batch_parity.py::test_parity_matrix``.
2. **Registry round-trip** — ``name -> create_algorithm -> name`` is the
   identity, and the class/label lookups agree with the instance.
3. **Golden trajectory** — a full CAAI probe (environments A and B, fixed
   seed) matches the committed snapshot in ``tests/tcp/golden/<name>.json``
   exactly, so any behavioural drift in a family is caught even when both
   engine tiers drift together.

Adding family #20 is one ``FAMILIES`` row plus one golden file::

    PYTHONPATH=src python -m tests.tcp.conformance_harness --regenerate <name>

The file is not named ``test_*`` so tier-1 collection goes through the
``tests/tcp/test_conformance.py`` shim; CI runs this file directly.
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

import repro.tcp.registry as registry
from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from tests.conftest import make_synthetic_server, numpy_versions, scalar_engine

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Seed for the golden probe's rng (covers both environments A and B).
GOLDEN_SEED = 2011

#: The golden probe runs at the production ladder start so the snapshot
#: captures the full slow start, the W_timeout overshoot, and all 18
#: post-timeout rounds in both environments.
GOLDEN_W_TIMEOUT = 512


@dataclass(frozen=True)
class FamilyRow:
    """One conformance table entry.

    ``sender_kwargs`` feeds the synthetic server's :class:`SenderConfig`, so
    a family that needs a quirk to exercise its signature (none do today)
    declares it here rather than in the tests.
    """

    name: str
    sender_kwargs: dict = field(default_factory=dict)


#: The conformance table: one row per registry family, old and new.
FAMILIES: tuple[FamilyRow, ...] = (
    # The paper's classic catalogue (Table I era).
    FamilyRow("bic"),
    FamilyRow("ctcp-a"),
    FamilyRow("ctcp-b"),
    FamilyRow("cubic-a"),
    FamilyRow("cubic-b"),
    FamilyRow("hstcp"),
    FamilyRow("htcp"),
    FamilyRow("hybla"),
    FamilyRow("illinois"),
    FamilyRow("lp"),
    FamilyRow("reno"),
    FamilyRow("stcp"),
    FamilyRow("vegas"),
    FamilyRow("veno"),
    FamilyRow("westwood"),
    FamilyRow("yeah"),
    # Post-2011 families added by the modern-families extension.
    FamilyRow("bbr"),
    FamilyRow("dctcp"),
    FamilyRow("learned"),
)

FAMILY_IDS = [row.name for row in FAMILIES]


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def gather_probe(row: FamilyRow, *, w_timeout: int = 64,
                 condition: NetworkCondition | None = None,
                 seed: int = 7):
    gatherer = TraceGatherer(GatherConfig(w_timeout=w_timeout, mss=100))
    return gatherer.gather_probe(
        make_synthetic_server(row.name, **row.sender_kwargs),
        condition or NetworkCondition.ideal(), np.random.default_rng(seed))


def gather_probe_pair(row: FamilyRow, **kwargs):
    """The same probe on the batched and the scalar per-ACK engine."""
    fast = gather_probe(row, **kwargs)
    with scalar_engine():
        return fast, gather_probe(row, **kwargs)


def assert_probes_identical(fast, reference):
    for trace_fast, trace_reference in zip(fast.traces(), reference.traces()):
        assert trace_fast.pre_timeout == trace_reference.pre_timeout
        assert trace_fast.post_timeout == trace_reference.post_timeout
        assert trace_fast.invalid_reason is trace_reference.invalid_reason
        assert trace_fast == trace_reference
    assert fast.w_timeout == reference.w_timeout


def trajectory_snapshot(probe) -> dict:
    """The JSON-stable golden form of a probe's cwnd trajectories."""
    snapshot = {"w_timeout": probe.w_timeout, "mss": probe.mss}
    for trace in probe.traces():
        snapshot[f"env_{trace.environment}"] = {
            "pre_timeout": [float(w) for w in trace.pre_timeout],
            "post_timeout": [float(w) for w in trace.post_timeout],
            "invalid_reason": (None if trace.invalid_reason is None
                               else trace.invalid_reason.name),
        }
    return snapshot


def golden_snapshot(row: FamilyRow) -> dict:
    probe = gather_probe(row, w_timeout=GOLDEN_W_TIMEOUT, seed=GOLDEN_SEED)
    return trajectory_snapshot(probe)


class TestConformanceTable:
    def test_table_covers_the_registry_exactly(self):
        # Read the module attribute, not a from-import: registration rebinds
        # the ALL_ALGORITHM_NAMES snapshot.
        assert sorted(FAMILY_IDS) == sorted(registry.ALL_ALGORITHM_NAMES)

    def test_every_family_has_a_golden_file(self):
        missing = [row.name for row in FAMILIES
                   if not golden_path(row.name).exists()]
        assert missing == [], (
            "regenerate with: PYTHONPATH=src python -m "
            f"tests.tcp.conformance_harness --regenerate {' '.join(missing)}")

    def test_no_orphan_golden_files(self):
        orphans = sorted(path.stem for path in GOLDEN_DIR.glob("*.json")
                         if path.stem not in FAMILY_IDS)
        assert orphans == []


@pytest.mark.parametrize("row", FAMILIES, ids=FAMILY_IDS)
class TestPerFamilyConformance:
    def test_engine_parity_under_loss(self, row):
        condition = NetworkCondition(average_rtt=0.2, rtt_std=0.0,
                                     loss_rate=0.02)
        fast, scalar = gather_probe_pair(row, condition=condition, seed=13)
        assert_probes_identical(fast, scalar)

    def test_registry_round_trip(self, row):
        algorithm = registry.create_algorithm(row.name)
        assert algorithm.name == row.name
        assert type(algorithm) is registry.algorithm_class(row.name)
        again = registry.create_algorithm(algorithm.name)
        assert type(again) is type(algorithm)
        assert registry.algorithm_label(row.name)

    def test_golden_trajectory(self, row):
        path = golden_path(row.name)
        if not path.exists():
            pytest.fail(f"missing golden file {path}; regenerate with: "
                        "PYTHONPATH=src python -m tests.tcp.conformance_harness "
                        f"--regenerate {row.name}")
        expected = json.loads(path.read_text())
        actual = golden_snapshot(row)
        assert actual == expected, (
            f"{row.name} cwnd trajectory drifted from the committed golden "
            f"snapshot ({numpy_versions()}); if the change is intentional, "
            "regenerate with: PYTHONPATH=src python -m "
            f"tests.tcp.conformance_harness --regenerate {row.name}")


def regenerate(names: list[str]) -> None:
    rows = {row.name: row for row in FAMILIES}
    unknown = [name for name in names if name not in rows]
    if unknown:
        raise SystemExit(f"unknown families: {unknown}; table has {FAMILY_IDS}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or FAMILY_IDS:
        snapshot = golden_snapshot(rows[name])
        golden_path(name).write_text(json.dumps(snapshot, indent=1,
                                                sort_keys=True) + "\n")
        print(f"wrote {golden_path(name)}")


if __name__ == "__main__":
    arguments = sys.argv[1:]
    if arguments and arguments[0] == "--regenerate":
        regenerate(arguments[1:])
    else:
        raise SystemExit(
            "usage: PYTHONPATH=src python -m tests.tcp.conformance_harness --regenerate "
            "[family ...]")
