"""Exact work-counter gates on the probe engine.

A timing tripwire needs a quiet machine and a margin; a work counter at a
fixed seed repeats exactly, so it can be pinned outright. Each row probes
one server of every identifiable family at the production ``w_timeout`` and
pins two counts: the ACKs that reached the scalar per-ACK engine
(:meth:`TcpSender.on_ack_packet`) and the clean prefixes the batched engine
consumed (:attr:`TcpSender.batch_runs`); no row may build a per-packet
:class:`Segment`. A second pass probes every registry family on the plain
and thinned paths and pins, per family, the calls to its scalar growth
hooks, so a family whose batch hook stops engaging shows by name. A change
that sends these servers back to the per-ACK loop, or splits a round's
ladder into more batched steps, fails here without any timing noise; a
change that lowers a count updates its pinned value on purpose.
"""

import collections
import functools

import numpy as np
import pytest

from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.scenarios.middlebox import MiddleboxConfig, MiddleboxServer
from repro.tcp.connection import ACK_BATCH_ENV, TcpSender
from repro.tcp.packet import Segment
from repro.tcp.registry import ALL_ALGORITHM_NAMES, IDENTIFIABLE_ALGORITHMS
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

#: Scalar growth-hook calls ``(on_ack_avoidance, on_ack_slow_start)`` per
#: registry family that makes any, on the plain and thinned rows; every
#: other family makes none. Westwood+ replays its hooks ACK by ACK (it
#: reads ``srtt`` and each ACK's packet advance), and Hybla's own slow
#: start runs per ACK. Deleting ``Reno.on_ack_avoidance_batch`` (RENO then
#: grows through the default one-call-per-ACK loop) makes RENO 7,240
#: ``on_ack_avoidance`` calls on the plain row.
HOOK_CALLS = {
    "plain": {"westwood": (1585, 1652), "hybla": (0, 8)},
    "thinned": {"westwood": (61, 1359), "hybla": (0, 4)},
}
HOOKS = ("on_ack_avoidance", "on_ack_slow_start")


def probe_row(label: str, algorithms, on_sender) -> None:
    """Probe one server per family of ``algorithms`` under the row ``label``.

    ``on_sender(sender)`` sees every :class:`TcpSender` right after its
    construction.
    """
    _, sender_kwargs, middlebox, condition, _, _ = ROWS[ROW_IDS.index(label)]
    init = TcpSender.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        on_sender(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(ACK_BATCH_ENV, raising=False)
        patch.setattr(TcpSender, "__init__", recording)
        for algorithm in algorithms:
            server = make_synthetic_server(algorithm, **sender_kwargs)
            if middlebox is not None:
                server = MiddleboxServer(server, middlebox)
            gatherer = TraceGatherer(GatherConfig(w_timeout=W_TIMEOUT, mss=100))
            gatherer.gather_probe(server, condition, np.random.default_rng(7))


@functools.cache
def work_counts(label: str) -> tuple[int, int, int]:
    """``(on_ack_packet calls, clean prefixes, Segment objects)`` of ``label``."""
    calls = segments = 0
    senders = []
    on_ack_packet = TcpSender.on_ack_packet
    segment_init = Segment.__post_init__

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return on_ack_packet(self, *args, **kwargs)

    def counting_segments(self):
        nonlocal segments
        segments += 1
        segment_init(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TcpSender, "on_ack_packet", counting)
        patch.setattr(Segment, "__post_init__", counting_segments)
        probe_row(label, IDENTIFIABLE_ALGORITHMS, senders.append)
    return calls, sum(sender.batch_runs for sender in senders), segments


@functools.cache
def hook_calls(label: str) -> dict[str, tuple[int, int]]:
    """Scalar growth-hook calls per registry family under the row ``label``.

    The counters wrap each sender's algorithm *instance*, so the class-level
    checks that route a family to its batch hook see the unpatched class.
    """
    calls = collections.Counter()

    def wrap(sender):
        algorithm = sender.algorithm
        for hook in HOOKS:
            def counting(state, ctx, call=getattr(algorithm, hook),
                         key=(algorithm.name, hook)):
                calls[key] += 1
                return call(state, ctx)
            setattr(algorithm, hook, counting)

    probe_row(label, ALL_ALGORITHM_NAMES, wrap)
    return {name: tuple(calls[name, hook] for hook in HOOKS)
            for name in ALL_ALGORITHM_NAMES}


@pytest.mark.parametrize("label,expected", [(row[0], row[4]) for row in ROWS],
                         ids=ROW_IDS)
def test_per_ack_calls(label, expected):
    assert work_counts(label)[0] == expected


@pytest.mark.parametrize("label,expected", [(row[0], row[5]) for row in ROWS],
                         ids=ROW_IDS)
def test_clean_prefixes(label, expected):
    assert work_counts(label)[1] == expected


@pytest.mark.parametrize("label", ROW_IDS)
def test_no_segment_objects(label):
    """The block pipeline never builds a per-packet ``Segment``."""
    assert work_counts(label)[2] == 0


@pytest.mark.parametrize("label", list(HOOK_CALLS))
def test_scalar_hook_calls(label):
    expected = {name: HOOK_CALLS[label].get(name, (0, 0))
                for name in ALL_ALGORITHM_NAMES}
    assert hook_calls(label) == expected
