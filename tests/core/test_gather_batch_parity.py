"""Batch/scalar parity matrix for the trace gatherer.

The batched ACK engine must be an invisible optimisation: every registry
algorithm, in both emulated environments, across the pre- and post-timeout
phases, and under loss, F-RTO, the server quirks and the ACK-path
middleboxes (thinning, policing, cross-traffic bursts, stretching -- whose
ladders reach the sender as stretch-ACK runs), must produce bit-identical
:class:`WindowTrace`s whether the sender runs the batched fast path or the
scalar per-ACK engine (forced by :func:`tests.conftest.scalar_engine`).
"""

import contextlib

import numpy as np
import pytest

from repro.core.census import CensusConfig, CensusRunner
from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.scenarios.middlebox import MiddleboxConfig, MiddleboxServer
from repro.tcp.registry import ALL_ALGORITHM_NAMES
from repro.web.population import PopulationConfig, ServerPopulation
from tests.conftest import QUIRK_CONFIGS, make_synthetic_server, scalar_engine

#: The two engines by name: the batched one needs nothing entered.
ENGINES = {"batched": contextlib.nullcontext, "scalar": scalar_engine}

LOSSY = NetworkCondition(average_rtt=0.2, rtt_std=0.0, loss_rate=0.02)

#: (label, gather kwargs, sender kwargs) for the scenario axis of the matrix.
SCENARIOS = [
    ("clean", dict(w_timeout=64), dict()),
    ("lossy", dict(w_timeout=64, condition=LOSSY), dict()),
    ("frto", dict(w_timeout=64), dict(use_frto=True)),
    ("quirks", dict(w_timeout=64), dict(initial_ssthresh=40.0,
                                        send_buffer_packets=90.0)),
    *((label, dict(w_timeout=64), quirk) for label, quirk in QUIRK_CONFIGS),
    ("freeze-ceiling-lossy", dict(w_timeout=64, condition=LOSSY),
     dict(QUIRK_CONFIGS)["freeze-ceiling"]),
    *((f"thin-{every}", dict(w_timeout=64,
                              middlebox=MiddleboxConfig(thin_every=every)), dict())
      for every in (2, 4, 7)),
    # One clean prefix spans stride runs and the gaps lost ACKs leave.
    ("thin-4-lossy", dict(w_timeout=64, condition=LOSSY,
                          middlebox=MiddleboxConfig(thin_every=4)), dict()),
    ("policer", dict(w_timeout=64, middlebox=MiddleboxConfig(
        policer_capacity=48, policer_rate=40.0)), dict()),
    ("stretch", dict(w_timeout=64,
                     middlebox=MiddleboxConfig(stretch_seconds=0.05)), dict()),
    # The production w_timeout, plain and behind the ``ack-manipulated``
    # pack's middlebox (every 4th ACK, 50 ms late): long slow-start runs and
    # large avoidance windows that the 64 rows never reach.
    ("full-512", dict(w_timeout=512), dict()),
    ("full-512-ack-manipulated", dict(w_timeout=512, middlebox=MiddleboxConfig(
        thin_every=4, stretch_seconds=0.05)), dict()),
]


def gather_pair(algorithm, w_timeout=64, condition=None, seed=7,
                middlebox=None, **sender_kwargs):
    """Probe the same synthetic server with the batched and scalar engines.

    With a ``middlebox`` the server sits behind that ACK-path chain, and
    both engines must see it drop the same ACKs.
    """
    condition = condition or NetworkCondition.ideal()
    probes, stats = {}, {}
    for engine, entered in ENGINES.items():
        gatherer = TraceGatherer(GatherConfig(w_timeout=w_timeout, mss=100))
        server = make_synthetic_server(algorithm, **sender_kwargs)
        if middlebox is not None:
            server = MiddleboxServer(server, middlebox)
            stats[engine] = server.stats
        with entered():
            probes[engine] = gatherer.gather_probe(server, condition,
                                                   np.random.default_rng(seed))
    assert stats.get("batched") == stats.get("scalar")
    return probes["batched"], probes["scalar"]


def assert_probes_identical(batched, scalar):
    for trace_batched, trace_scalar in zip(batched.traces(), scalar.traces()):
        assert trace_batched.pre_timeout == trace_scalar.pre_timeout
        assert trace_batched.post_timeout == trace_scalar.post_timeout
        assert trace_batched.invalid_reason is trace_scalar.invalid_reason
        assert trace_batched.ack_loss_events == trace_scalar.ack_loss_events
        assert trace_batched == trace_scalar


@pytest.mark.parametrize("algorithm", ALL_ALGORITHM_NAMES)
@pytest.mark.parametrize("label,gather_kwargs,sender_kwargs",
                         SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_parity_matrix(algorithm, label, gather_kwargs, sender_kwargs):
    batched, scalar = gather_pair(algorithm, **gather_kwargs, **sender_kwargs)
    assert_probes_identical(batched, scalar)


def test_parity_under_heavy_ack_loss():
    """Prefixes spanning many gaps (lost ACKs), on both the decoupled and
    the interleaved (Westwood+) flow."""
    condition = NetworkCondition(average_rtt=0.5, rtt_std=0.0, loss_rate=0.08)
    for algorithm in ("reno", "cubic-b", "illinois", "westwood"):
        batched, scalar = gather_pair(algorithm, w_timeout=64,
                                      condition=condition, seed=3)
        assert_probes_identical(batched, scalar)


@pytest.mark.parametrize("scenario_pack", [None, "ack-manipulated", "policed"])
def test_census_report_identical_across_engines(trained_classifier,
                                                scenario_pack):
    """End to end: a small census produces the same report either way."""
    reports = {}
    for engine, entered in ENGINES.items():
        population = ServerPopulation(PopulationConfig(size=12, seed=99))
        population.generate()
        runner = CensusRunner(trained_classifier,
                              CensusConfig(seed=5,
                                           scenario_pack=scenario_pack))
        with entered():
            reports[engine] = runner.run(population)
    batched, scalar = reports["batched"], reports["scalar"]
    assert len(batched) == len(scalar)
    assert batched.outcomes == scalar.outcomes


def test_training_examples_identical_across_engines():
    """The training-set builder is bit-identical across engines."""
    from repro.core.training import TrainingSetBuilder
    from repro.net.conditions import default_condition_database

    vectors = {}
    for engine, entered in ENGINES.items():
        builder = TrainingSetBuilder(
            conditions_per_pair=2, seed=13, w_timeouts=(64,),
            algorithms=("reno", "cubic-b", "vegas", "westwood"),
            condition_database=default_condition_database(size=200, seed=8))
        with entered():
            examples = builder.build_examples()
        vectors[engine] = [(e.algorithm, e.w_timeout, tuple(e.vector.as_array()))
                           for e in examples]
    assert vectors["batched"] == vectors["scalar"]
