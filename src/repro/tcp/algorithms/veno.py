"""TCP Veno (Fu & Liew, JSAC 2003).

Veno keeps RENO's structure but uses a Vegas-style backlog estimate ``N`` to
(a) slow the additive increase to every other RTT once the path looks
congested and (b) choose the multiplicative decrease: 0.8 when the loss looks
random (small backlog) and 0.5 when it looks congestive. The RTT step of
environment B changes the backlog estimate, which the paper exploits to
distinguish Veno from RENO (Section IV-B).
"""

from __future__ import annotations

import math

from repro.tcp.base import (
    AckContext,
    CongestionAvoidance,
    CongestionState,
    additive_increase_run,
)


class Veno(CongestionAvoidance):
    """TCP Veno congestion avoidance."""

    name = "veno"
    label = "VENO"
    delay_based = True
    batch_decoupled = True

    #: Backlog threshold distinguishing random from congestive loss (packets).
    backlog_threshold = 3.0
    #: Multiplicative decrease for random losses.
    random_loss_beta = 0.8
    #: Multiplicative decrease for congestive losses.
    congestive_loss_beta = 0.5

    def __init__(self) -> None:
        self._backlog = 0.0
        self._hold_growth = False

    def on_connection_start(self, state: CongestionState) -> None:
        self._backlog = 0.0
        self._hold_growth = False

    # -- window growth -----------------------------------------------------
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        if self._backlog < self.backlog_threshold:
            state.cwnd += 1.0 / max(state.cwnd, 1.0)
        else:
            # Congested path: grow half as fast (one packet every two RTTs),
            # implemented by skipping every other ACK's contribution.
            if self._hold_growth:
                self._hold_growth = False
            else:
                state.cwnd += 1.0 / max(state.cwnd, 1.0)
                self._hold_growth = True

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # The backlog estimate only changes at round boundaries, so the run
        # stays in one growth mode. In the congested mode a held ACK leaves
        # cwnd alone, so the run is the RENO increase on every other ACK
        # (starting with the first unless growth is held), and every ACK
        # flips the toggle.
        if self._backlog < self.backlog_threshold:
            growing = count
        else:
            hold = self._hold_growth
            growing = (count + (0 if hold else 1)) // 2
            self._hold_growth = hold ^ (count % 2 == 1)
        state.cwnd = additive_increase_run(state.cwnd, 1.0, growing)
        return count, None

    def on_round_complete(self, state: CongestionState, ctx: AckContext) -> None:
        rtt = state.last_round_rtt or state.latest_rtt
        base_rtt = state.min_rtt
        if rtt is None or rtt <= 0 or not math.isfinite(base_rtt):
            return
        self._backlog = max(0.0, state.cwnd * (rtt - base_rtt) / rtt)

    # -- multiplicative decrease --------------------------------------------
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        if self._backlog < self.backlog_threshold:
            return state.cwnd * self.random_loss_beta
        return state.cwnd * self.congestive_loss_beta

    @property
    def backlog(self) -> float:
        return self._backlog
