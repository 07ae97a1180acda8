"""HighSpeed TCP (Floyd, RFC 3649).

HSTCP modifies RENO only for large windows: both the additive increase
``a(w)`` and the multiplicative decrease ``b(w)`` become functions of the
current window. Below ``low_window`` (38 packets) the behaviour is exactly
RENO; at the reference window of 83000 packets the decrease factor falls to
0.1, i.e. the paper's ``beta = 1 - b(w)`` ranges between 0.5 and 0.9
(Section III-B).
"""

from __future__ import annotations

import math

from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState


class HighSpeedTcp(CongestionAvoidance):
    """RFC 3649 HighSpeed TCP response function."""

    name = "hstcp"
    label = "HSTCP"
    delay_based = False
    batch_decoupled = True

    #: Window below which HSTCP behaves exactly like RENO.
    low_window = 38.0
    #: Reference large window and its target decrease parameter.
    high_window = 83_000.0
    high_decrease = 0.1
    #: Packet drop rate at the reference large window (RFC 3649, Section 5).
    high_p = 1e-7

    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        increase = self.additive_increase(state.cwnd)
        state.cwnd += increase / max(state.cwnd, 1.0)

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # additive_increase and its two helpers, inlined: the four constant
        # logs are taken once per run and log(cwnd) once per ACK (the
        # scalar rule takes it twice, for b(w) and for p(w), with the same
        # result). a(w) > 0, so cwnd only grows: it crosses low_window at
        # most once, and above it max(cwnd, 1.0) is cwnd. A subclass that
        # redefines those methods must override this hook as well.
        low_window = self.low_window
        high_window = self.high_window
        high_decrease = self.high_decrease
        decrease_span = high_decrease - 0.5
        log_low = math.log(low_window)
        log_span = math.log(high_window) - log_low
        log_low_p = math.log(1.5 / (low_window ** 2))
        log_p_span = math.log(self.high_p) - log_low_p
        log, exp = math.log, math.exp
        cwnd = state.cwnd
        done = 0
        while done < count and cwnd <= low_window:
            # a(w) = 1: RENO below low_window.
            cwnd += 1.0 / max(cwnd, 1.0)
            done += 1
        for _ in range(count - done):
            log_ratio = (log(cwnd) - log_low) / log_span
            if cwnd >= high_window:
                b = high_decrease
            else:
                b = 0.5 + decrease_span * log_ratio
            p = exp(log_low_p + log_ratio * log_p_span)
            cwnd += (cwnd ** 2) * p * 2.0 * b / (2.0 - b) / cwnd
        state.cwnd = cwnd
        return count, None

    def ssthresh_after_loss(self, state: CongestionState) -> float:
        b = self.decrease_parameter(state.cwnd)
        return state.cwnd * (1.0 - b)

    # -- HSTCP response function --------------------------------------------
    def decrease_parameter(self, cwnd: float) -> float:
        """RFC 3649 b(w): 0.5 at low_window decaying to 0.1 at high_window."""
        if cwnd <= self.low_window:
            return 0.5
        if cwnd >= self.high_window:
            return self.high_decrease
        log_ratio = (math.log(cwnd) - math.log(self.low_window)) / (
            math.log(self.high_window) - math.log(self.low_window))
        return 0.5 + (self.high_decrease - 0.5) * log_ratio

    def additive_increase(self, cwnd: float) -> float:
        """RFC 3649 a(w): packets added per RTT at window ``cwnd``."""
        if cwnd <= self.low_window:
            return 1.0
        b = self.decrease_parameter(cwnd)
        p = self.drop_rate(cwnd)
        return (cwnd ** 2) * p * 2.0 * b / (2.0 - b)

    def drop_rate(self, cwnd: float) -> float:
        """The HSTCP response function's implied drop rate at window ``cwnd``."""
        if cwnd <= self.low_window:
            # RENO's response function: p = 1.5 / w^2.
            return 1.5 / (cwnd ** 2)
        low_p = 1.5 / (self.low_window ** 2)
        log_ratio = (math.log(cwnd) - math.log(self.low_window)) / (
            math.log(self.high_window) - math.log(self.low_window))
        log_p = math.log(low_p) + log_ratio * (math.log(self.high_p) - math.log(low_p))
        return math.exp(log_p)
