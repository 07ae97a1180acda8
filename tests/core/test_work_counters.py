"""Exact work-counter gates on the probe engine.

A timing tripwire needs a quiet machine and a margin; a work counter at a
fixed seed repeats exactly, so it can be pinned outright. Each row probes
one server of every identifiable family at the production ``w_timeout`` and
pins five counts: the ACKs that reached the scalar per-ACK engine
(:meth:`TcpSender.on_ack_packet`), the clean prefixes the batched engine
consumed (:attr:`TcpSender.batch_runs`), the :class:`AckContext` objects
built, the probe stream's ``Generator.random`` calls and the
:meth:`RtoEstimator.current_rto` calls. No row may build a per-packet
:class:`Segment`, and every
:class:`SegmentBlock` built must be one the senders emitted
(:attr:`TcpSender.block_records`): the gatherer cuts none. A second pass
probes every registry family on the plain and both thinned paths and pins,
per family, the calls to its scalar growth hooks, so a family whose batch hook
stops engaging shows by name. A change that sends these servers back to the
per-ACK loop, splits a round's ladder into more batched steps, allocates
per round what nothing reads, draws the loss uniforms round by round or
computes the timeout where nothing reads it fails here without any timing
noise; a change that lowers a count updates its pinned value on purpose.
"""

import collections
import contextlib
import functools
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.scenarios.middlebox import MiddleboxConfig, MiddleboxServer
from repro.tcp.base import AckContext
from repro.tcp.connection import TcpSender
from repro.tcp.packet import Segment, SegmentBlock
from repro.tcp.registry import ALL_ALGORITHM_NAMES, IDENTIFIABLE_ALGORITHMS
from repro.tcp.rto import RtoEstimator
from tests.conftest import make_synthetic_server, scalar_engine

W_TIMEOUT = 512
IDEAL = NetworkCondition.ideal()

#: (label, sender kwargs, middlebox, path, on_ack_packet calls, clean
#: prefixes, ``AckContext`` objects, ``Generator.random`` calls on the probe
#: streams, ``current_rto`` calls, each over the 14 families). The lossy
#: row's calls are ACKs that jump past the round end because no ACK closing
#: the round arrived. Behind the thinning middlebox slow start grows by one
#: ACK in four, so the thinned row's servers never leave it after the
#: timeout; the ``thinned-avoidance`` row starts them at an ssthresh of 64
#: so every family reaches avoidance there. The ceiling row's cap sits
#: above ``w_timeout``, so every family reaches the post-timeout rounds in
#: environment A and five of them grow into the cap there; its counts equal
#: the plain row's, because a capped ACK costs a hook call, not a prefix.
#: Each row fails on a deliberate regression: sending the freeze and
#: ceiling servers back to the per-ACK engine makes 162,832 and 140,070
#: calls; a prefix that refuses ``step > 1`` runs (stretch ACKs) makes the
#: thinned row 18,484 calls; a 4-ACK minimum prefix length makes the rows
#: 165, 168, 165, 816 and 268 calls; a prefix that ends with its first run,
#: so at every lost ACK and before every stride that follows a per-packet
#: stretch, makes the lossy row 5,996 prefixes and the thinned row 1,696.
#: A context is built per decoupled clean prefix, per distinct packet
#: advance in an interleaved one, per scalar ACK that grows the window and
#: per round completion of a family that overrides ``on_round_complete``.
#: Building the round context on every round completion, as the sender did
#: before it skipped the base no-op hook, makes the rows 1,484, 1,456,
#: 1,484, 2,288, 1,605 and 2,348. Only the lossy row draws: one
#: ``Generator.random`` call per round and direction makes it 1,511 calls
#: where the chunked draws make 135. The RTO is computed only where a
#: timer deadline is read; computing it at every arm makes the rows 769,
#: 756, 769, 1,147, 867 and 1,153.
ROWS = [
    ("plain", dict(), None, IDEAL, 0, 742, 1120, 0, 54),
    ("freeze", dict(freeze_in_avoidance=True), None, IDEAL, 0, 728, 728, 0, 56),
    ("ceiling", dict(approach_ceiling=600.0), None, IDEAL, 0, 742, 1120, 0, 54),
    ("thinned", dict(), MiddleboxConfig(thin_every=4), IDEAL, 0, 1120,
     1728, 0, 54),
    ("lossy", dict(), None, NetworkCondition(0.04, 0.0, 0.02), 15, 825,
     1250, 135, 54),
    ("thinned-avoidance", dict(initial_ssthresh=64.0),
     MiddleboxConfig(thin_every=4), IDEAL, 0, 1148, 1772, 0, 10),
]
ROW_IDS = [row[0] for row in ROWS]

#: Scalar growth-hook calls ``(on_ack_avoidance, on_ack_slow_start)`` per
#: registry family that makes any, on the plain and the two thinned rows;
#: every other family makes none. Westwood+ replays its hooks ACK by ACK (it
#: reads ``srtt`` and each ACK's packet advance), and Hybla's own slow
#: start runs per ACK. Deleting ``Reno.on_ack_avoidance_batch`` (RENO then
#: grows through the default one-call-per-ACK loop) makes RENO 7,240
#: ``on_ack_avoidance`` calls on the plain row and 946 on the
#: thinned-avoidance row; the thinned row, never in avoidance, reads 0.
HOOK_CALLS = {
    "plain": {"westwood": (1585, 1652), "hybla": (0, 8)},
    "thinned": {"westwood": (61, 1359), "hybla": (0, 4)},
    "thinned-avoidance": {"westwood": (946, 122), "hybla": (0, 4)},
}
HOOKS = ("on_ack_avoidance", "on_ack_slow_start")


class CountingGenerator:
    """A probe stream that counts its ``Generator.random`` calls.

    Everything the gatherer touches is delegated to the wrapped generator;
    ``random`` also adds one to ``counts["random"]``.
    """

    def __init__(self, rng: np.random.Generator, counts: collections.Counter):
        self.rng = rng
        self.counts = counts

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def random(self, *args, **kwargs):
        self.counts["random"] += 1
        return self.rng.random(*args, **kwargs)


def probe_row(label: str, algorithms, on_sender,
              stream=lambda rng: rng) -> None:
    """Probe one server per family of ``algorithms`` under the row ``label``.

    ``on_sender(sender)`` sees every :class:`TcpSender` right after its
    construction, and each probe draws from ``stream(rng)``.
    """
    _, sender_kwargs, middlebox, condition, *_ = ROWS[ROW_IDS.index(label)]
    init = TcpSender.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        on_sender(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TcpSender, "__init__", recording)
        for algorithm in algorithms:
            server = make_synthetic_server(algorithm, **sender_kwargs)
            if middlebox is not None:
                server = MiddleboxServer(server, middlebox)
            gatherer = TraceGatherer(GatherConfig(w_timeout=W_TIMEOUT, mss=100))
            gatherer.gather_probe(server, condition,
                                  stream(np.random.default_rng(7)))


class Work(NamedTuple):
    """What one row's probes did and built."""

    per_ack_calls: int
    clean_prefixes: int
    segments: int
    blocks: int
    block_records: int
    contexts: int
    random_calls: int
    rto_calls: int


@functools.cache
def work_counts(label: str) -> Work:
    """The :class:`Work` of the row ``label``."""
    counts = collections.Counter()
    senders = []

    def counting(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for owner, attribute in ((TcpSender, "on_ack_packet"),
                                 (Segment, "__post_init__"),
                                 (SegmentBlock, "__post_init__"),
                                 (AckContext, "__init__"),
                                 (RtoEstimator, "current_rto")):
            patch.setattr(owner, attribute,
                          counting(owner, getattr(owner, attribute)))
        probe_row(label, IDENTIFIABLE_ALGORITHMS, senders.append,
                  lambda rng: CountingGenerator(rng, counts))
    return Work(per_ack_calls=counts[TcpSender],
                clean_prefixes=sum(sender.batch_runs for sender in senders),
                segments=counts[Segment], blocks=counts[SegmentBlock],
                block_records=sum(sender.block_records for sender in senders),
                contexts=counts[AckContext], random_calls=counts["random"],
                rto_calls=counts[RtoEstimator])


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
    assert work_counts(label).per_ack_calls == expected


@pytest.mark.parametrize("label,expected", [(row[0], row[5]) for row in ROWS],
                         ids=ROW_IDS)
def test_clean_prefixes(label, expected):
    assert work_counts(label).clean_prefixes == expected


@pytest.mark.parametrize("label", ROW_IDS)
def test_no_segment_objects(label):
    """The block pipeline never builds a per-packet ``Segment``."""
    assert work_counts(label).segments == 0


@pytest.mark.parametrize("label", ROW_IDS)
def test_gatherer_builds_no_blocks(label):
    """Every ``SegmentBlock`` built is one a sender emitted.

    Cutting delivered blocks around lost packets with ``SegmentBlock.slice``
    makes the lossy row build 4,352 blocks against its 895 records.
    """
    work = work_counts(label)
    assert work.blocks == work.block_records


@pytest.mark.parametrize("label,expected", [(row[0], row[6]) for row in ROWS],
                         ids=ROW_IDS)
def test_ack_contexts(label, expected):
    assert work_counts(label).contexts == expected


@pytest.mark.parametrize("label", list(HOOK_CALLS))
def test_scalar_hook_calls(label):
    expected = {name: HOOK_CALLS[label].get(name, (0, 0))
                for name in ALL_ALGORITHM_NAMES}
    assert hook_calls(label) == expected


@pytest.mark.parametrize("label,expected", [(row[0], row[7]) for row in ROWS],
                         ids=ROW_IDS)
def test_stream_random_calls(label, expected):
    assert work_counts(label).random_calls == expected


@pytest.mark.parametrize("label,expected", [(row[0], row[8]) for row in ROWS],
                         ids=ROW_IDS)
def test_rto_computations(label, expected):
    assert work_counts(label).rto_calls == expected


def test_scalar_engine_takes_no_batched_step():
    """``scalar_engine`` is the one switch to the per-ACK reference: inside
    it a probe consumes no clean prefix, outside it the same probe does."""
    runs = {}
    for engine, entered in (("scalar", scalar_engine),
                            ("batched", contextlib.nullcontext)):
        senders = []
        with entered():
            probe_row("plain", ("reno",), senders.append)
        runs[engine] = sum(sender.batch_runs for sender in senders)
    assert runs["scalar"] == 0
    assert runs["batched"] > 0
