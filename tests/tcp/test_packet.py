"""Tests for the segment container."""

import pytest

from repro.tcp.packet import Segment


class TestSegment:
    def test_end_seq_is_seq_plus_length(self):
        segment = Segment(seq=1000, length=100, sent_at=1.0, packet_index=10)
        assert segment.end_seq == 1100

    def test_segments_are_immutable(self):
        segment = Segment(seq=0, length=100, sent_at=0.0, packet_index=0)
        with pytest.raises(AttributeError):
            segment.seq = 5

    def test_retransmission_flag_defaults_false(self):
        segment = Segment(seq=0, length=100, sent_at=0.0, packet_index=0)
        assert not segment.is_retransmission

    def test_retransmission_flag_settable(self):
        segment = Segment(seq=0, length=100, sent_at=0.0, packet_index=0,
                          is_retransmission=True)
        assert segment.is_retransmission
