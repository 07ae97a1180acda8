"""Exact work-counter gates on the probe engine.

A timing tripwire needs a quiet machine and a margin; a work counter at a
fixed seed repeats exactly, so it can be pinned outright. Each row probes
one server of every identifiable family at the production ``w_timeout`` and
pins two counts: the ACKs that reached the scalar per-ACK engine
(:meth:`TcpSender.on_ack_packet`) and the clean prefixes the batched engine
consumed (:attr:`TcpSender.batch_runs`). A change that sends these servers
back to the per-ACK loop, or splits a round's ladder into more batched
steps, fails here without any timing noise; a change that lowers a count
updates its pinned value on purpose.
"""

import functools

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

#: (label, sender kwargs, middlebox, path, on_ack_packet calls, clean
#: prefixes, each over the 14 families). The lossy row's calls are ACKs
#: that jump past the round end because no ACK closing the round arrived.
#: Each row fails on a deliberate regression: sending the freeze and
#: ceiling servers back to the per-ACK engine makes 162,832 and 454,393
#: calls; a prefix that refuses ``step > 1`` runs (stretch ACKs) makes the
#: thinned row 18,484 calls; a 4-ACK minimum prefix length makes the rows
#: 165, 168, 84, 816 and 268 calls; a prefix that ends with its first run,
#: so at every lost ACK and before every stride that follows a per-packet
#: stretch, makes the lossy row 5,996 prefixes and the thinned row 1,696.
ROWS = [
    ("plain", dict(), None, IDEAL, 0, 742),
    ("freeze", dict(freeze_in_avoidance=True), None, IDEAL, 0, 728),
    ("ceiling", dict(approach_ceiling=500.0), None, IDEAL, 0, 1120),
    ("thinned", dict(), MiddleboxConfig(thin_every=4), IDEAL, 0, 1120),
    ("lossy", dict(), None, NetworkCondition(0.04, 0.0, 0.02), 15, 825),
]
ROW_IDS = [row[0] for row in ROWS]


@functools.cache
def work_counts(label: str) -> tuple[int, int]:
    """``(on_ack_packet calls, clean prefixes)`` of the row ``label``."""
    _, sender_kwargs, middlebox, condition, _, _ = ROWS[ROW_IDS.index(label)]
    calls = 0
    senders = []
    on_ack_packet = TcpSender.on_ack_packet
    init = TcpSender.__init__

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return on_ack_packet(self, *args, **kwargs)

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        senders.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(ACK_BATCH_ENV, raising=False)
        patch.setattr(TcpSender, "on_ack_packet", counting)
        patch.setattr(TcpSender, "__init__", recording)
        for algorithm in IDENTIFIABLE_ALGORITHMS:
            server = make_synthetic_server(algorithm, **sender_kwargs)
            if middlebox is not None:
                server = MiddleboxServer(server, middlebox)
            gatherer = TraceGatherer(GatherConfig(w_timeout=W_TIMEOUT, mss=100))
            gatherer.gather_probe(server, condition, np.random.default_rng(7))
    return calls, sum(sender.batch_runs for sender in senders)


@pytest.mark.parametrize("label,expected", [(row[0], row[4]) for row in ROWS],
                         ids=ROW_IDS)
def test_per_ack_calls(label, expected):
    assert work_counts(label)[0] == expected


@pytest.mark.parametrize("label,expected", [(row[0], row[5]) for row in ROWS],
                         ids=ROW_IDS)
def test_clean_prefixes(label, expected):
    assert work_counts(label)[1] == expected
