"""Compound TCP (Tan, Song, Zhang, Sridharan, INFOCOM 2006).

Compound TCP (CTCP) adds a delay-based window ``dwnd`` on top of the standard
loss-based AIMD window; the sending window is their sum. While the network is
uncongested (the estimated backlog ``diff`` stays below ``gamma`` packets) the
delay window grows polynomially, ``dwnd += alpha * win^k - 1``; once queueing
is detected it shrinks multiplicatively.

The paper distinguishes two deployed versions (Section III-A):

* ``CTCP-a`` -- Windows Server 2003 / XP (the original implementation).
* ``CTCP-b`` -- Windows Server 2008 / Vista / 7 (the revised implementation).

Microsoft never published the internals of either version; the paper
identifies them purely by their observable traces (Fig. 3(c)/(d)), noting that
the later version's post-timeout growth reacts to an RTT change while the
earlier one's does not. We therefore reconstruct the difference as follows and
record it in DESIGN.md: CTCP-a discards its delay window on a timeout and
rebuilds it from scratch with the fixed original gain, while CTCP-b retains a
bounded delay window across timeouts and normalises its gain by the measured
RTT (the documented "gamma auto-tuning" refinement), which makes its growth
rate RTT-dependent.
"""

from __future__ import annotations

import math

from repro.tcp.base import (
    AckContext,
    CongestionAvoidance,
    CongestionState,
    additive_increase_run,
)


class CompoundTcp(CongestionAvoidance):
    """Base Compound TCP: loss window plus delay window."""

    name = "ctcp"
    label = "CTCP"
    delay_based = True
    batch_decoupled = True

    #: Threshold (packets of backlog) below which the path is deemed uncongested.
    gamma = 30.0
    #: Delay window growth gain and exponent (alpha * win^k).
    alpha = 0.125
    k = 0.75
    #: Multiplicative shrink factor applied to dwnd when backlog is detected.
    zeta = 1.0
    #: Loss-window multiplicative decrease (the AIMD component halves).
    loss_beta = 0.5
    #: CTCP only engages its delay window above this window size; below it the
    #: behaviour is indistinguishable from RENO (the property behind the
    #: paper's RC-small merge).
    low_window = 41.0
    #: Whether dwnd survives a retransmission timeout.
    dwnd_survives_timeout = False
    #: Whether the delay-window gain is normalised by the measured RTT.
    rtt_normalised_gain = False
    #: Reference RTT used for normalisation (seconds).
    reference_rtt = 0.1

    def __init__(self) -> None:
        self._dwnd = 0.0
        self._loss_cwnd = 0.0

    def on_connection_start(self, state: CongestionState) -> None:
        self._dwnd = 0.0
        self._loss_cwnd = state.cwnd

    # -- window growth -----------------------------------------------------
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        # The loss-based component always performs the RENO additive increase.
        state.cwnd += 1.0 / max(state.cwnd, 1.0)

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # The delay window moves once per round; per ACK only the loss-based
        # RENO increase runs.
        state.cwnd = additive_increase_run(state.cwnd, 1.0, count)
        return count, None

    def on_round_complete(self, state: CongestionState, ctx: AckContext) -> None:
        """Update the delay window once per RTT round (congestion avoidance only)."""
        if state.in_slow_start():
            return
        if state.cwnd < self.low_window:
            self._retire_dwnd(state)
            return
        rtt = state.last_round_rtt or state.latest_rtt
        base_rtt = state.min_rtt
        if rtt is None or not math.isfinite(base_rtt) or rtt <= 0:
            return
        win = state.cwnd
        expected = win / base_rtt
        actual = win / rtt
        diff = (expected - actual) * base_rtt
        previous_dwnd = self._dwnd
        if diff < self.gamma:
            gain = self.alpha
            if self.rtt_normalised_gain:
                gain = self.alpha * min(4.0, max(0.25, rtt / self.reference_rtt) ** 0.5)
            self._dwnd += max(gain * win ** self.k - 1.0, 0.0)
        else:
            self._dwnd = max(self._dwnd - self.zeta * diff, 0.0)
        # The compound window is the sum of the loss window (which lives in
        # ``cwnd`` and grows via the RENO per-ACK increase) and the delay
        # window; apply the change of the delay component on top.
        state.cwnd = max(state.cwnd + (self._dwnd - previous_dwnd), 2.0)

    def _retire_dwnd(self, state: CongestionState) -> None:
        """Remove any remaining delay window when dropping below ``low_window``."""
        if self._dwnd > 0.0:
            state.cwnd = max(state.cwnd - self._dwnd, 2.0)
            self._dwnd = 0.0

    # -- congestion events ---------------------------------------------------
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        # On loss the compound window collapses to half, the same observable
        # multiplicative decrease as RENO (CTCP is designed to be RENO-friendly).
        return state.cwnd * self.loss_beta

    def on_timeout(self, state: CongestionState, now: float) -> None:
        super().on_timeout(state, now)
        if self.dwnd_survives_timeout:
            self._dwnd = min(self._dwnd, state.ssthresh / 2.0)
        else:
            self._dwnd = 0.0

    @property
    def dwnd(self) -> float:
        """Current delay-based window component (packets)."""
        return self._dwnd


class CtcpA(CompoundTcp):
    """Compound TCP as shipped with Windows Server 2003 and XP."""

    name = "ctcp-a"
    label = "CTCP-a (Windows Server 2003 / XP)"
    dwnd_survives_timeout = False
    rtt_normalised_gain = False


class CtcpB(CompoundTcp):
    """Compound TCP as shipped with Windows Server 2008, Vista and 7."""

    name = "ctcp-b"
    label = "CTCP-b (Windows Server 2008 / Vista / 7)"
    dwnd_survives_timeout = True
    rtt_normalised_gain = True
