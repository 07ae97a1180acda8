"""RENO: the traditional AIMD congestion avoidance algorithm.

Following the paper's terminology, "RENO" refers to the congestion avoidance
component shared by Reno, NewReno and SACK (Jacobson 1988, RFC 5681): additive
increase of one packet per RTT and multiplicative decrease of one half.
"""

from __future__ import annotations

from repro.tcp.base import (
    AckContext,
    CongestionAvoidance,
    CongestionState,
    additive_increase_run,
)


class Reno(CongestionAvoidance):
    """Standard additive-increase multiplicative-decrease congestion avoidance."""

    name = "reno"
    label = "RENO"
    delay_based = False
    batch_decoupled = True

    #: Multiplicative decrease parameter (the paper's beta for RENO is 0.5).
    beta = 0.5

    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        # One packet per congestion window's worth of ACKs, i.e. one per RTT.
        state.cwnd += 1.0 / max(state.cwnd, 1.0)

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        state.cwnd = additive_increase_run(state.cwnd, 1.0, count)
        return count, None

    def ssthresh_after_loss(self, state: CongestionState) -> float:
        return state.cwnd * self.beta
