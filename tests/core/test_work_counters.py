"""Exact work-counter gates on the probe engine.

A timing tripwire needs a quiet machine and a margin; a work counter at a
fixed seed repeats exactly, so it can be pinned outright. Each row probes
one server of every identifiable family on an ideal path at the production
``w_timeout`` and counts the ACKs that reached the scalar per-ACK engine
(:meth:`TcpSender.on_ack_packet`). A change that sends these servers back
to the per-ACK loop fails here without any timing noise; a change that
lowers a count updates its pinned value on purpose.
"""

import numpy as np
import pytest

from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.tcp.connection import ACK_BATCH_ENV, TcpSender
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS
from tests.conftest import make_synthetic_server

W_TIMEOUT = 512

#: (label, sender kwargs, on_ack_packet calls over the 14 families).
#: Sending the freeze and ceiling servers back to the per-ACK engine
#: raises those two rows to 162,832 and 454,393 calls.
ROWS = [
    ("plain", dict(), 165),
    ("freeze", dict(freeze_in_avoidance=True), 168),
    ("ceiling", dict(approach_ceiling=500.0), 84),
]


@pytest.mark.parametrize("sender_kwargs,expected", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_per_ack_calls(monkeypatch, sender_kwargs, expected):
    monkeypatch.delenv(ACK_BATCH_ENV, raising=False)
    calls = 0
    on_ack_packet = TcpSender.on_ack_packet

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return on_ack_packet(self, *args, **kwargs)

    monkeypatch.setattr(TcpSender, "on_ack_packet", counting)
    for algorithm in IDENTIFIABLE_ALGORITHMS:
        gatherer = TraceGatherer(GatherConfig(w_timeout=W_TIMEOUT, mss=100))
        gatherer.gather_probe(make_synthetic_server(algorithm, **sender_kwargs),
                              NetworkCondition.ideal(), np.random.default_rng(7))
    assert calls == expected
