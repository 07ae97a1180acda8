"""Exact work-counter gates on the probe engine.

A timing tripwire needs a quiet machine and a margin; a work counter at a
fixed seed repeats exactly, so it can be pinned outright. Each row probes
one server of every identifiable family at the production ``w_timeout`` and
counts the ACKs that reached the scalar per-ACK engine
(:meth:`TcpSender.on_ack_packet`). A change that sends these servers back
to the per-ACK loop fails here without any timing noise; a change that
lowers a count updates its pinned value on purpose.
"""

import numpy as np
import pytest

from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.scenarios.middlebox import MiddleboxConfig, MiddleboxServer
from repro.tcp.connection import ACK_BATCH_ENV, TcpSender
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS
from tests.conftest import make_synthetic_server

W_TIMEOUT = 512
IDEAL = NetworkCondition.ideal()

#: (label, sender kwargs, middlebox, path, on_ack_packet calls over the 14
#: families). The thinned row's calls are Westwood+ stride ACKs, which stay
#: per-ACK. Each row fails on a deliberate regression: sending the freeze
#: and ceiling servers back to the per-ACK engine makes 162,832 and 454,393
#: calls; a fast path that refuses ``step > 1`` runs (stretch ACKs) makes
#: the thinned row 18,534; a 4-ACK minimum run length on the fast path
#: makes the rows 165, 168, 84, 2,784 and 1,787.
ROWS = [
    ("plain", dict(), None, IDEAL, 2),
    ("freeze", dict(freeze_in_avoidance=True), None, IDEAL, 2),
    ("ceiling", dict(approach_ceiling=500.0), None, IDEAL, 0),
    ("thinned", dict(), MiddleboxConfig(thin_every=4), IDEAL, 1410),
    ("lossy", dict(), None, NetworkCondition(0.04, 0.0, 0.02), 112),
]


@pytest.mark.parametrize("sender_kwargs,middlebox,condition,expected",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_per_ack_calls(monkeypatch, sender_kwargs, middlebox, condition, expected):
    monkeypatch.delenv(ACK_BATCH_ENV, raising=False)
    calls = 0
    on_ack_packet = TcpSender.on_ack_packet

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return on_ack_packet(self, *args, **kwargs)

    monkeypatch.setattr(TcpSender, "on_ack_packet", counting)
    for algorithm in IDENTIFIABLE_ALGORITHMS:
        server = make_synthetic_server(algorithm, **sender_kwargs)
        if middlebox is not None:
            server = MiddleboxServer(server, middlebox)
        gatherer = TraceGatherer(GatherConfig(w_timeout=W_TIMEOUT, mss=100))
        gatherer.gather_probe(server, condition, np.random.default_rng(7))
    assert calls == expected
