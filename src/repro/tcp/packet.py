"""Segment and ACK containers used by the TCP sender and the CAAI prober.

CAAI estimates the congestion window of a remote server from the sequence
numbers of the data packets it receives (Section IV-D of the paper), so the
packet model keeps byte-level sequence numbers even though the sender
internally works in MSS-sized units.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Segment:
    """A data segment sent by the server.

    Attributes:
        seq: byte sequence number of the first payload byte.
        length: payload length in bytes (at most one MSS).
        sent_at: simulation time at which the segment left the sender.
        packet_index: zero-based index of the MSS-sized unit this segment
            carries; CAAI reasons about windows in packets, so carrying the
            index avoids repeated division at the prober.
        is_retransmission: True when the segment repeats previously sent data.
        ecn_ce: True when a link marked the segment with the ECN
            congestion-experienced codepoint instead of dropping it (the
            ``ecn_mark_probability`` knob, default off -- every segment on an
            ECN-free path carries False, exactly as before the field existed).
        end_seq: sequence number one past the last payload byte. Stored at
            construction rather than computed per access: the gather/ACK hot
            path reads it several times per packet (1.7M property calls in a
            small training build), and a slot read is ~4x cheaper than a
            property call. Derived from ``seq + length``, excluded from
            equality so the value semantics match the historic property.
    """

    seq: int
    length: int
    sent_at: float
    packet_index: int
    is_retransmission: bool = False
    ecn_ce: bool = False
    end_seq: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "end_seq", self.seq + self.length)


def in_sequence(segments: list["Segment"]) -> list["Segment"]:
    """Return ``segments`` ordered by ``end_seq``, sorting only when needed.

    The trace gatherer and the packet-level prober acknowledge a round's
    segments in sequence order. Deliveries already arrive in order in the
    overwhelmingly common case (the round-level engine never reorders; the
    netem links only reorder under jitter), so an ordered check replaces the
    unconditional key-function sort on the hot path (measured ~5x faster for
    an ordered 512-segment round, ~9 us vs ~48 us).

    Ordering by ``seq`` is equivalent to ordering by ``end_seq`` here:
    segments partition an MSS-grid stream, so ``seq1 < seq2`` implies
    ``end1 <= seq2 < end2``, and equal ``seq`` means the same packet (ties
    keep their arrival order, exactly as the stable sort did).
    """
    keys = [segment.seq for segment in segments]
    if keys == sorted(keys):
        return segments
    return sorted(segments, key=_SEQ_KEY)


_SEQ_KEY = operator.attrgetter("seq")


@dataclass(frozen=True, slots=True)
class SegmentBlock:
    """A contiguous run of MSS-grid segments sent in one burst.

    The round-level probe engine only ever needs *which byte ranges were sent
    when*, so a round's transmissions are shipped as one (or a few) of these
    records instead of one :class:`Segment` object per packet: emission and
    bookkeeping become O(runs) instead of O(cwnd). Packets
    ``start_index .. stop_index - 1`` all carry ``mss`` payload bytes except
    the last one, whose length is ``last_length`` (shorter only when the block
    ends at the tail of the send stream).

    The packet-level prober and the netem links expand blocks back into
    individual :class:`Segment` objects via :meth:`segments`, so the
    discrete-event path is untouched semantically.
    """

    start_index: int
    stop_index: int
    mss: int
    sent_at: float
    last_length: int
    is_retransmission: bool = False

    def __post_init__(self) -> None:
        if self.stop_index <= self.start_index:
            raise ValueError("a segment block must cover at least one packet")
        if not 0 < self.last_length <= self.mss:
            raise ValueError("last_length must be in (0, mss]")

    def __len__(self) -> int:
        return self.stop_index - self.start_index

    @property
    def start_seq(self) -> int:
        """Byte sequence number of the block's first payload byte."""
        return self.start_index * self.mss

    @property
    def end_seq(self) -> int:
        """Sequence number one past the block's last payload byte."""
        return (self.stop_index - 1) * self.mss + self.last_length

    def slice(self, start: int, stop: int) -> "SegmentBlock":
        """Sub-block covering the block-relative packets ``[start, stop)``.

        Used by the gatherer to split a block around lost packets; the tail
        length is preserved only when the slice still ends at the block's last
        packet.
        """
        if not 0 <= start < stop <= len(self):
            raise ValueError("slice out of range")
        new_stop = self.start_index + stop
        last_length = self.last_length if new_stop == self.stop_index else self.mss
        return SegmentBlock(start_index=self.start_index + start,
                            stop_index=new_stop, mss=self.mss,
                            sent_at=self.sent_at, last_length=last_length,
                            is_retransmission=self.is_retransmission)

    def segments(self):
        """Yield the block's packets as individual :class:`Segment` objects.

        Every packet carries ``mss`` bytes except the last, which carries
        ``last_length``; all share the block's send time and retransmission
        flag.
        """
        mss = self.mss
        sent_at = self.sent_at
        retransmission = self.is_retransmission
        last = self.stop_index - 1
        for index in range(self.start_index, self.stop_index):
            yield Segment(seq=index * mss,
                          length=self.last_length if index == last else mss,
                          sent_at=sent_at, packet_index=index,
                          is_retransmission=retransmission)


def block_packet_count(blocks: list["SegmentBlock"]) -> int:
    """Total number of packets covered by ``blocks``."""
    return sum(block.stop_index - block.start_index for block in blocks)


def in_sequence_blocks(blocks: list["SegmentBlock"]) -> list["SegmentBlock"]:
    """Return ``blocks`` ordered by sequence number, sorting only when needed.

    Blocks emitted by one sender never interleave byte ranges (a
    retransmission block repeats data strictly below any new-data block of
    the same burst), so a stable sort on ``start_index`` orders the expanded
    segments exactly as :func:`in_sequence` would.
    """
    keys = [block.start_index for block in blocks]
    if keys == sorted(keys):
        return blocks
    return sorted(blocks, key=_BLOCK_KEY)


_BLOCK_KEY = operator.attrgetter("start_index")


@dataclass(frozen=True)
class Ack:
    """A cumulative acknowledgment sent by the CAAI prober.

    Attributes:
        ack_seq: cumulative acknowledgment (next byte expected).
        sent_at: time the prober emitted the ACK.
        receive_window: advertised receive window in bytes after scaling.
        is_duplicate: True for the duplicate ACK CAAI uses to defeat F-RTO.
    """

    ack_seq: int
    sent_at: float
    receive_window: int
    is_duplicate: bool = False
