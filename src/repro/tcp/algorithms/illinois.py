"""TCP-Illinois (Liu, Basar, Srikant, VALUETOOLS 2006).

Illinois is a loss-delay hybrid: losses still trigger a multiplicative
decrease, but the additive-increase gain ``alpha`` and the decrease factor
``beta`` are both functions of the measured queueing delay. With an empty
queue the algorithm is aggressive (alpha = 10, beta = 1/8); as queueing delay
approaches its maximum the algorithm degrades to RENO-like behaviour. The
paper uses the RTT step in environment B to expose this delay dependence
(Section IV-B).
Parameter values follow the Linux implementation (``tcp_illinois.c``).
"""

from __future__ import annotations

import math

from repro.tcp.base import (
    AckContext,
    CongestionAvoidance,
    CongestionState,
    additive_increase_run,
)


class Illinois(CongestionAvoidance):
    """TCP-Illinois congestion avoidance."""

    name = "illinois"
    label = "ILLINOIS"
    delay_based = True
    batch_decoupled = True

    alpha_min = 0.3
    alpha_max = 10.0
    beta_min = 0.125
    beta_max = 0.5
    #: Window below which the algorithm stays RENO-like (Linux: win_thresh 15).
    win_thresh = 15.0
    #: Queueing-delay breakpoints as fractions of the maximum observed delay.
    d1_fraction = 0.01
    d2_fraction = 0.10
    d3_fraction = 0.80
    #: Delays below this floor (seconds) are treated as measurement noise;
    #: the kernel works in whole microseconds and a sub-millisecond spread is
    #: indistinguishable from an uncongested path.
    delay_noise_floor = 0.001

    def __init__(self) -> None:
        self._alpha = 1.0
        self._beta = self.beta_max
        self._max_delay = 0.0
        self._round_delays: list[float] = []

    def on_connection_start(self, state: CongestionState) -> None:
        self._alpha = 1.0
        self._beta = self.beta_max
        self._max_delay = 0.0
        self._round_delays = []

    # -- window growth -----------------------------------------------------
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        if ctx.rtt_sample is not None and math.isfinite(state.min_rtt):
            self._round_delays.append(max(0.0, ctx.rtt_sample - state.min_rtt))
        state.cwnd += self._alpha / max(state.cwnd, 1.0)

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # alpha only changes at round boundaries; the per-ACK delay sample is
        # the same constant for every ACK of a clean run.
        if ctx.rtt_sample is not None and math.isfinite(state.min_rtt):
            delay = max(0.0, ctx.rtt_sample - state.min_rtt)
            self._round_delays.extend([delay] * count)
        state.cwnd = additive_increase_run(state.cwnd, self._alpha, count)
        return count, None

    def on_round_complete(self, state: CongestionState, ctx: AckContext) -> None:
        # alpha and beta are refreshed every round, in slow start as well as in
        # congestion avoidance, because a loss may strike while still in slow
        # start and the backoff must reflect the delay observed so far.
        delay = self._average_round_delay(state)
        self._round_delays = []
        self._max_delay = max(self._max_delay, delay)
        if state.cwnd < self.win_thresh:
            # Below the window threshold Illinois is plain RENO (Linux base values).
            self._alpha, self._beta = 1.0, self.beta_max
            return
        self._alpha = self._compute_alpha(delay)
        self._beta = self._compute_beta(delay)

    def _average_round_delay(self, state: CongestionState) -> float:
        if self._round_delays:
            return sum(self._round_delays) / len(self._round_delays)
        return state.queueing_delay()

    def _compute_alpha(self, delay: float) -> float:
        d_m = self._max_delay
        if d_m <= self.delay_noise_floor:
            return self.alpha_max
        d1 = self.d1_fraction * d_m
        if delay <= d1:
            return self.alpha_max
        # Hyperbolic interpolation k1 / (k2 + d), continuous at d1 and d_m.
        k1 = (d_m - d1) * self.alpha_max * self.alpha_min / (self.alpha_max - self.alpha_min)
        k2 = k1 / self.alpha_max - d1
        return max(self.alpha_min, k1 / (k2 + delay))

    def _compute_beta(self, delay: float) -> float:
        d_m = self._max_delay
        if d_m <= self.delay_noise_floor:
            return self.beta_min
        d2 = self.d2_fraction * d_m
        d3 = self.d3_fraction * d_m
        if delay <= d2:
            return self.beta_min
        if delay >= d3:
            return self.beta_max
        # Linear interpolation between the two breakpoints.
        return (self.beta_min * (d3 - delay) + self.beta_max * (delay - d2)) / (d3 - d2)

    # -- multiplicative decrease --------------------------------------------
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        return state.cwnd * (1.0 - self._beta)

    @property
    def current_alpha(self) -> float:
        return self._alpha
