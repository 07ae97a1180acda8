"""YeAH-TCP (Baiocchi, Castellani, Vacirca, PFLDNET 2007).

YeAH ("Yet Another Highspeed TCP") switches between a *fast* mode, in which it
grows like Scalable TCP, and a *slow* mode, in which it behaves like RENO,
based on the estimated queue backlog. Its decongestion on loss removes the
estimated queue but never less than one eighth of the window, so with an empty
queue the multiplicative decrease parameter is 7/8. Parameters follow the
Linux implementation (``tcp_yeah.c``).
"""

from __future__ import annotations

import math

from repro.tcp.base import (
    AckContext,
    CongestionAvoidance,
    CongestionState,
    additive_increase_run,
)
from repro.tcp.algorithms.scalable import ScalableTcp


class Yeah(CongestionAvoidance):
    """YeAH-TCP congestion avoidance."""

    name = "yeah"
    label = "YEAH"
    delay_based = True
    batch_decoupled = True

    #: Maximum tolerated queue backlog in packets (Linux alpha = 80).
    max_queue = 80.0
    #: RTT inflation ratio threshold (Linux phy: rtt > base * (1 + 1/8)).
    rtt_inflation = 1.0 + 1.0 / 8.0
    #: Window reduction divisor in fast mode (Linux delta = 3 -> cwnd / 8).
    delta_shift = 3
    #: Number of RENO-mode rounds after which YeAH behaves fully like RENO.
    rho = 16
    #: Queue drain fraction applied during precautionary decongestion.
    epsilon_shift = 1

    def __init__(self) -> None:
        self._scalable = ScalableTcp()
        self._fast_mode = True
        self._reno_rounds = 0
        self._last_queue = 0.0

    def on_connection_start(self, state: CongestionState) -> None:
        self._fast_mode = True
        self._reno_rounds = 0
        self._last_queue = 0.0

    # -- window growth -----------------------------------------------------
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        if self._fast_mode:
            self._scalable.on_ack_avoidance(state, ctx)
        else:
            state.cwnd += 1.0 / max(state.cwnd, 1.0)

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # The mode flag only flips at round boundaries, so the whole run uses
        # one growth rule.
        if self._fast_mode:
            return self._scalable.on_ack_avoidance_batch(state, ctx, count)
        state.cwnd = additive_increase_run(state.cwnd, 1.0, count)
        return count, None

    def on_round_complete(self, state: CongestionState, ctx: AckContext) -> None:
        rtt = state.last_round_rtt or state.latest_rtt
        base_rtt = state.min_rtt
        if rtt is None or rtt <= 0 or not math.isfinite(base_rtt):
            return
        queue = state.cwnd * (rtt - base_rtt) / rtt
        self._last_queue = max(queue, 0.0)
        if state.in_slow_start():
            return
        congested = queue > self.max_queue or rtt > base_rtt * self.rtt_inflation
        if congested:
            self._fast_mode = False
            self._reno_rounds += 1
            # Precautionary decongestion: drain part of the estimated queue.
            if queue > self.max_queue:
                state.cwnd = max(state.cwnd - queue / (2 ** self.epsilon_shift),
                                 state.ssthresh if math.isfinite(state.ssthresh) else 2.0,
                                 2.0)
        else:
            self._fast_mode = True
            self._reno_rounds = 0

    # -- multiplicative decrease --------------------------------------------
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        if self._reno_rounds < self.rho:
            reduction = max(self._last_queue, state.cwnd / (2 ** self.delta_shift))
        else:
            reduction = max(state.cwnd / 2.0, 2.0)
        return max(state.cwnd - reduction, 2.0)

    @property
    def in_fast_mode(self) -> bool:
        return self._fast_mode
