"""H-TCP (Shorten & Leith, PFLDNet 2004).

H-TCP scales its additive increase with the time elapsed since the last
congestion event: for the first second it behaves like RENO, after which the
per-RTT increase grows quadratically with the elapsed time. Its multiplicative
decrease adapts to the ratio of the minimum and maximum RTT, bounded between
0.5 and 0.8 -- the property the paper's environment B is designed to expose
(Section III-B).
"""

from __future__ import annotations

import math

from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState


class HTcp(CongestionAvoidance):
    """H-TCP congestion avoidance."""

    name = "htcp"
    label = "HTCP"
    delay_based = False
    batch_decoupled = True

    #: Low-speed regime duration after a congestion event (seconds).
    delta_l = 1.0
    #: Bounds on the adaptive multiplicative decrease parameter.
    beta_min = 0.5
    beta_max = 0.8
    #: Whether the increase is additionally scaled by 2 * (1 - beta), the
    #: "adaptive backoff" coupling described in the H-TCP paper.
    adaptive_backoff_scaling = True

    def __init__(self) -> None:
        self._beta = self.beta_min

    def on_connection_start(self, state: CongestionState) -> None:
        self._beta = self.beta_min

    # -- window growth -----------------------------------------------------
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        alpha = self.increase_factor(state, ctx.now)
        state.cwnd += alpha / max(state.cwnd, 1.0)

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # The increase factor depends only on the (constant within a run)
        # time since the last congestion event and the current beta.
        alpha = self.increase_factor(state, ctx.now)
        cwnd = state.cwnd
        for _ in range(count):
            cwnd += alpha / max(cwnd, 1.0)
        state.cwnd = cwnd
        return count, None

    def increase_factor(self, state: CongestionState, now: float) -> float:
        """Packets added per RTT, as a function of time since last congestion."""
        delta = self.time_since_congestion(state, now)
        if delta <= self.delta_l:
            alpha = 1.0
        else:
            excess = delta - self.delta_l
            alpha = 1.0 + 10.0 * excess + (excess / 2.0) ** 2
        if self.adaptive_backoff_scaling:
            alpha = max(alpha * 2.0 * (1.0 - self._beta), 1.0)
        return alpha

    # -- multiplicative decrease --------------------------------------------
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        self._beta = self._adaptive_beta(state)
        return state.cwnd * self._beta

    def _adaptive_beta(self, state: CongestionState) -> float:
        if not math.isfinite(state.min_rtt) or state.max_rtt <= 0:
            return self.beta_min
        ratio = state.min_rtt / state.max_rtt
        return min(max(ratio, self.beta_min), self.beta_max)
