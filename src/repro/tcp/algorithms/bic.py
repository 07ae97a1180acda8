"""BIC: Binary Increase Congestion control (Xu, Harfoush, Rhee, INFOCOM 2004).

BIC performs a binary search between the window at the last loss (``w_last_max``)
and the current window, capped by a maximum increment, and probes beyond
``w_last_max`` with a slow-start-like "max probing" phase. The multiplicative
decrease is 819/1024 (about 0.8) for large windows and 0.5 below the
``low_window`` threshold, exactly the behaviour the paper quotes in
Section III-B. Parameter values follow the Linux implementation
(``tcp_bic.c``), which is what the paper's testbed ran.
"""

from __future__ import annotations

from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState


class Bic(CongestionAvoidance):
    """Linux-flavoured BIC congestion avoidance."""

    name = "bic"
    label = "BIC"
    delay_based = False
    batch_decoupled = True

    #: Below this window BIC behaves like RENO (Linux default 14).
    low_window = 14.0
    #: Multiplicative decrease factor for large windows (819/1024).
    beta = 819.0 / 1024.0
    #: Maximum window increment per RTT during additive increase / max probing.
    max_increment = 16.0
    #: Binary search divisor (Linux BICTCP_B).
    search_divisor = 4.0
    #: Smoothing factor applied close to w_last_max (Linux default 20).
    smooth_part = 20.0
    #: Whether to apply fast convergence when losses repeat below w_last_max.
    fast_convergence = True

    def __init__(self) -> None:
        self._w_last_max = 0.0

    def on_connection_start(self, state: CongestionState) -> None:
        self._w_last_max = 0.0

    # -- window growth -----------------------------------------------------
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        cwnd = state.cwnd
        count = self._increase_interval(cwnd)
        state.cwnd += 1.0 / count

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # _increase_interval and _max_probing_interval, inlined (a subclass
        # that redefines them must override this hook as well): w_last_max
        # only changes on congestion events, so it and the phase limits
        # derived from it are constant over the run.
        w_last_max = self._w_last_max
        low_window = self.low_window
        max_increment = self.max_increment
        divisor = self.search_divisor
        smooth_part = self.smooth_part
        probing = w_last_max <= 0
        smooth_limit = w_last_max + divisor
        linear_limit = w_last_max + max_increment * (divisor - 1.0)
        divisor_less_one = divisor - 1.0
        cwnd = state.cwnd
        for _ in range(count):
            if cwnd <= low_window:
                interval = cwnd
            elif probing:
                # No loss seen yet: additive increase with the cap.
                interval = cwnd / max_increment
            elif cwnd >= w_last_max:
                # Max probing: slow start away from the plateau.
                if cwnd < smooth_limit:
                    interval = cwnd * smooth_part / divisor
                elif cwnd < linear_limit:
                    interval = cwnd * divisor_less_one / (cwnd - w_last_max)
                else:
                    interval = cwnd / max_increment
            else:
                # Binary search: jump half-way to w_last_max, capped.
                distance = (w_last_max - cwnd) / divisor
                if distance > max_increment:
                    interval = cwnd / max_increment
                elif distance <= 1.0:
                    interval = cwnd * smooth_part / divisor
                else:
                    interval = cwnd / distance
            cwnd += 1.0 / interval
        state.cwnd = cwnd
        return count, None

    def _increase_interval(self, cwnd: float) -> float:
        """Number of ACKs required to grow the window by one packet."""
        if cwnd <= self.low_window:
            return cwnd
        if self._w_last_max <= 0 or cwnd >= self._w_last_max:
            return self._max_probing_interval(cwnd)
        # Binary search phase: jump half-way to w_last_max, capped.
        distance = (self._w_last_max - cwnd) / self.search_divisor
        if distance > self.max_increment:
            return cwnd / self.max_increment
        if distance <= 1.0:
            return cwnd * self.smooth_part / self.search_divisor
        return cwnd / distance

    def _max_probing_interval(self, cwnd: float) -> float:
        """Growth schedule above w_last_max (slow start away from the plateau)."""
        w_max = self._w_last_max
        if w_max <= 0:
            # No loss seen yet: behave like additive increase with the cap.
            return cwnd / self.max_increment
        if cwnd < w_max + self.search_divisor:
            return cwnd * self.smooth_part / self.search_divisor
        if cwnd < w_max + self.max_increment * (self.search_divisor - 1.0):
            return cwnd * (self.search_divisor - 1.0) / (cwnd - w_max)
        return cwnd / self.max_increment

    # -- multiplicative decrease --------------------------------------------
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        cwnd = state.cwnd
        self._update_w_last_max(cwnd)
        if cwnd <= self.low_window:
            return cwnd / 2.0
        return cwnd * self.beta

    def _update_w_last_max(self, cwnd: float) -> None:
        if self.fast_convergence and cwnd < self._w_last_max:
            self._w_last_max = cwnd * (1.0 + self.beta) / 2.0
        else:
            self._w_last_max = cwnd

    @property
    def w_last_max(self) -> float:
        """Expose the binary-search target for tests and example tooling."""
        return self._w_last_max
