"""Tests for the segment-block emitter (sender-level API and bookkeeping).

This module exercises the :class:`SegmentBlock` record itself, the block
every sender entry point returns, the compressed ACK ladder
(``on_ack_ladder``) against the per-ACK engine, and the send-time span
bookkeeping.
"""

import pytest

from repro.tcp.connection import SenderConfig, TcpSender
from repro.tcp.packet import Segment, SegmentBlock, block_packet_count
from repro.tcp.registry import create_algorithm
from tests.conftest import expand, expand_runs


def make_sender(algorithm="reno", data_bytes=10_000_000, **config_kwargs):
    config_kwargs.setdefault("mss", 100)
    config_kwargs.setdefault("initial_window", 2)
    sender = TcpSender(create_algorithm(algorithm), SenderConfig(**config_kwargs))
    sender.enqueue_bytes(data_bytes)
    return sender


class TestSegmentBlock:
    def test_geometry(self):
        block = SegmentBlock(start_index=2, stop_index=5, mss=100,
                             sent_at=1.5, last_length=40)
        assert len(block) == 3
        assert block.end_seq == 440

    def test_expansion_matches_per_packet_emission(self):
        block = SegmentBlock(start_index=2, stop_index=5, mss=100,
                             sent_at=1.5, last_length=40)
        segments = list(block.segments())
        assert segments == [
            Segment(seq=200, length=100, sent_at=1.5, packet_index=2),
            Segment(seq=300, length=100, sent_at=1.5, packet_index=3),
            Segment(seq=400, length=40, sent_at=1.5, packet_index=4),
        ]
        assert [seg.end_seq for seg in segments] == [300, 400, 440]

    def test_slice_preserves_tail_length_only_at_the_tail(self):
        block = SegmentBlock(start_index=0, stop_index=4, mss=100,
                             sent_at=0.0, last_length=30)
        assert block.slice(0, 2).last_length == 100
        assert block.slice(2, 4).last_length == 30
        assert block.slice(1, 3).end_seq == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentBlock(start_index=3, stop_index=3, mss=100,
                         sent_at=0.0, last_length=100)
        with pytest.raises(ValueError):
            SegmentBlock(start_index=0, stop_index=1, mss=100,
                         sent_at=0.0, last_length=101)
        block = SegmentBlock(start_index=0, stop_index=4, mss=100,
                             sent_at=0.0, last_length=100)
        with pytest.raises(ValueError):
            block.slice(2, 2)

    def test_helpers(self):
        blocks = [SegmentBlock(start_index=5, stop_index=7, mss=100,
                               sent_at=0.0, last_length=100),
                  SegmentBlock(start_index=0, stop_index=1, mss=100,
                               sent_at=0.0, last_length=100,
                               is_retransmission=True)]
        assert block_packet_count(blocks) == 3
        assert [seg.packet_index for seg in expand(blocks)] == [5, 6, 0]


class TestBlockEmission:
    def test_every_entry_point_returns_blocks(self):
        sender = make_sender(initial_window=4)
        emitted = [sender.start(0.0),
                   sender.on_ack(100, 1.0),
                   sender.on_ack_packet(2, 1.0),
                   sender.on_ack_ladder([(3, 2, 1)], 1.0),
                   sender.on_timer(sender.next_timer_deadline())]
        assert all(emitted)
        blocks = [block for batch in emitted for block in batch]
        assert all(isinstance(block, SegmentBlock) for block in blocks)
        assert sender.block_records == len(blocks)
        assert blocks[-1].is_retransmission

    def test_byte_acks_match_packet_acks(self):
        """``on_ack`` is ``on_ack_packet`` behind the byte-to-packet conversion."""
        def drive(use_bytes, rounds=12):
            sender = make_sender("cubic-b", initial_window=3)
            now = 0.0
            segments = expand(sender.start(now))
            history = []
            for _ in range(rounds):
                history.extend(segments)
                now += 1.0
                nxt = []
                for segment in segments:
                    if use_bytes:
                        nxt.extend(sender.on_ack(segment.end_seq, now))
                    else:
                        nxt.extend(sender.on_ack_packet(
                            segment.packet_index + 1, now))
                segments = expand(nxt)
            return history, sender.snapshot()

        assert drive(use_bytes=True) == drive(use_bytes=False)


class TestAckLadder:
    def drive_pair(self, runs_per_round, algorithm="reno"):
        """Run the same ladder through on_ack_ladder and the per-ACK engine."""
        ladder_sender = make_sender(algorithm, initial_window=4)
        scalar_sender = make_sender(algorithm, initial_window=4)
        ladder_sender.start(0.0)
        scalar_sender.start(0.0)
        now = 0.0
        ladder_out, scalar_out = [], []
        for runs in runs_per_round:
            now += 1.0
            ladder_out.extend(expand(ladder_sender.on_ack_ladder(runs, now)))
            for value in expand_runs(runs):
                scalar_out.extend(expand(scalar_sender.on_ack_packet(value, now)))
        assert ladder_sender.snapshot() == scalar_sender.snapshot()
        return ladder_out, scalar_out

    def test_clean_rounds_match_flat_ladder(self):
        rounds = [[(1, 4, 1)], [(5, 8, 1)], [(13, 16, 1)]]
        ladder_out, scalar_out = self.drive_pair(rounds)
        assert ladder_out == scalar_out

    def test_repeated_runs_count_as_duplicates(self):
        sender = make_sender("reno", initial_window=4, dupack_threshold=3)
        sender.start(0.0)
        sender.on_ack_ladder([(1, 4, 1)], 1.0)
        emitted = sender.on_ack_ladder([(4, 3, 0)], 2.0)
        # Three repeats of the cumulative point trigger a fast retransmit.
        retransmissions = [block for block in emitted if block.is_retransmission]
        assert len(retransmissions) == 1
        assert retransmissions[0].start_index == 4

    def test_fragmented_runs_match_ladder_with_holes(self):
        rounds = [[(1, 4, 1)],
                  [(5, 3, 1), (9, 4, 1)],     # one ACK lost in between
                  [(13, 12, 1)]]
        ladder_out, scalar_out = self.drive_pair(rounds)
        assert ladder_out == scalar_out

    def test_run_crossing_round_boundary(self):
        # 8 ACKs when only 4 packets are in the round: the fast path clamps
        # at the round end and the remainder replays scalar, exactly like
        # the per-ACK engine.
        rounds = [[(1, 4, 1)], [(5, 8, 1)], [(13, 16, 1)],
                  [(29, 20, 1)]]
        ladder_out, scalar_out = self.drive_pair(rounds)
        assert ladder_out == scalar_out

    def test_batch_engages_on_arithmetic_runs(self):
        sender = make_sender("reno", initial_window=8)
        sender.start(0.0)
        sender.on_ack_ladder([(1, 8, 1)], 1.0)
        assert sender.batch_runs == 1


class TestSpanBookkeeping:
    def test_spans_merge_within_a_burst(self):
        sender = make_sender(initial_window=4)
        sender.start(0.0)
        assert sender._send_spans == [[0, 4, 0.0]]
        sender.on_ack_ladder([(1, 4, 1)], 1.0)
        # Acked packets pruned, this round's emission merged into one span.
        assert sender._send_spans == [[4, 12, 1.0]]

    def test_retransmission_splits_its_span(self):
        sender = make_sender(initial_window=4)
        sender.start(0.0)
        sender.on_ack_ladder([(1, 4, 1)], 1.0)   # arms the RTO timer
        deadline = sender.next_timer_deadline()
        emitted = sender.on_timer(deadline)
        assert emitted[0].is_retransmission
        retransmitted = emitted[0].start_index
        spans = sender._send_spans
        assert spans[0] == [retransmitted, retransmitted + 1, deadline]
        assert spans[1][0] == retransmitted + 1
        assert sender._sent_time(retransmitted) == deadline
        assert sender._sent_time(retransmitted + 1) == 1.0
        assert sender._sent_extent(retransmitted + 1) == (1.0, sender.snd_nxt)

    def test_prune_skips_when_una_does_not_advance(self):
        sender = make_sender(initial_window=4)
        sender.start(0.0)
        before = [list(span) for span in sender._send_spans]
        sender._prune_acked(2, 2)
        assert sender._send_spans == before

    def test_sent_time_outside_spans_is_none(self):
        sender = make_sender(initial_window=4)
        sender.start(0.0)
        assert sender._sent_time(99) is None
        sender.on_ack_ladder([(1, 4, 1)], 1.0)
        assert sender._sent_time(0) is None  # pruned below snd_una
