"""Property-based tests for the TCP sender state machine.

Whatever sequence of (valid) ACKs and timer firings the network produces, the
sender must preserve its basic invariants: sequence numbers only move forward,
the congestion window never drops below one packet, ssthresh never drops below
two, and the amount of in-flight data never exceeds the effective window.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.tcp.connection import SenderConfig, TcpSender
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS, create_algorithm
from tests.conftest import expand

MSS = 100


def build_sender(algorithm: str, initial_window: int) -> TcpSender:
    sender = TcpSender(create_algorithm(algorithm),
                       SenderConfig(mss=MSS, initial_window=initial_window))
    sender.enqueue_bytes(5_000_000)
    return sender


@st.composite
def ack_schedules(draw):
    """A random but causally valid schedule of ACK fractions and timer events."""
    length = draw(st.integers(min_value=5, max_value=40))
    steps = []
    for _ in range(length):
        kind = draw(st.sampled_from(["ack", "partial_ack", "dup", "timer", "idle"]))
        gap = draw(st.floats(min_value=0.01, max_value=3.0, allow_nan=False))
        steps.append((kind, gap))
    return steps


class TestSenderInvariants:
    @given(algorithm=st.sampled_from(IDENTIFIABLE_ALGORITHMS),
           initial_window=st.sampled_from([1, 2, 3, 4, 10]),
           schedule=ack_schedules())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_any_ack_schedule(self, algorithm, initial_window, schedule):
        sender = build_sender(algorithm, initial_window)
        now = 0.0
        outstanding = expand(sender.start(now))
        highest_received = 0
        for kind, gap in schedule:
            now += gap
            in_flight_before = sender.snd_nxt - sender.snd_una
            new_segments = []
            if kind == "ack" and outstanding:
                highest_received = max(highest_received,
                                       max(seg.end_seq for seg in outstanding))
                new_segments = sender.on_ack(highest_received, now)
                outstanding = []
            elif kind == "partial_ack" and outstanding:
                segment = outstanding.pop(0)
                highest_received = max(highest_received, segment.end_seq)
                new_segments = sender.on_ack(segment.end_seq, now)
            elif kind == "dup":
                new_segments = sender.on_ack(highest_received, now, is_duplicate=True)
            elif kind == "timer":
                deadline = sender.next_timer_deadline()
                if deadline is not None:
                    now = max(now, deadline)
                    new_segments = sender.on_timer(now)
            outstanding.extend(expand(new_segments))

            # --- invariants -------------------------------------------------
            assert sender.state.cwnd >= 1.0
            assert sender.state.ssthresh >= 2.0
            assert 0 <= sender.snd_una <= sender.snd_nxt
            assert sender.snd_nxt <= sender.total_packets
            # New data is only sent within the effective window; in-flight data
            # may exceed a freshly *reduced* window (e.g. right after an RTO)
            # but must never grow beyond it.
            in_flight = sender.snd_nxt - sender.snd_una
            assert in_flight <= max(sender.effective_window() + 1, in_flight_before)
            if math.isfinite(sender.state.min_rtt):
                assert sender.state.min_rtt <= sender.state.max_rtt + 1e-9

    @given(algorithm=st.sampled_from(IDENTIFIABLE_ALGORITHMS))
    @settings(max_examples=14, deadline=None)
    def test_all_data_eventually_delivered_without_loss(self, algorithm):
        sender = TcpSender(create_algorithm(algorithm),
                           SenderConfig(mss=MSS, initial_window=2))
        sender.enqueue_bytes(200 * MSS)
        now = 0.0
        segments = expand(sender.start(now))
        for _ in range(500):
            if not segments:
                break
            now += 0.2
            next_segments = []
            for segment in segments:
                next_segments.extend(expand(sender.on_ack(segment.end_seq, now)))
            segments = next_segments
        assert sender.all_data_acked()
