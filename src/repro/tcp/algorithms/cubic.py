"""CUBIC: the cubic window growth function (Ha, Rhee, Xu, 2008).

CUBIC replaces BIC's binary search with an explicit cubic function of the time
elapsed since the last congestion event:

    W(t) = C * (t - K)^3 + W_max,     K = cbrt(W_max * (1 - beta) / C)

The paper distinguishes two deployed versions (Section III-A):

* ``CUBIC-a`` -- Linux kernels up to 2.6.25 ("CUBIC 2.0"): multiplicative
  decrease 819/1024 (about 0.8) and a TCP-friendliness window computed per
  ACK with the original constants.
* ``CUBIC-b`` -- Linux kernels 2.6.26 and later ("CUBIC 2.1+"): multiplicative
  decrease 717/1024 (0.7) and the reworked TCP-friendliness estimate.

Both share the cubic growth core implemented here.
"""

from __future__ import annotations

import math

from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState


class Cubic(CongestionAvoidance):
    """Common CUBIC machinery; concrete versions set ``beta``."""

    name = "cubic"
    label = "CUBIC"
    delay_based = False
    batch_decoupled = True

    #: Cubic scaling constant C (packets / second^3).
    scaling_constant = 0.4
    #: Multiplicative decrease factor; overridden by the concrete versions.
    beta = 717.0 / 1024.0
    #: Whether the TCP-friendly region (grow at least as fast as RENO) is used.
    tcp_friendliness = True
    #: Whether to apply fast convergence when losses repeat below w_last_max.
    fast_convergence = True

    def __init__(self) -> None:
        self._w_last_max = 0.0
        self._epoch_start: float | None = None
        self._origin_point = 0.0
        self._k = 0.0
        self._tcp_cwnd = 0.0
        self._ack_count = 0.0

    def on_connection_start(self, state: CongestionState) -> None:
        self._w_last_max = 0.0
        self._reset_epoch()

    def _reset_epoch(self) -> None:
        self._epoch_start = None
        self._origin_point = 0.0
        self._k = 0.0
        self._tcp_cwnd = 0.0
        self._ack_count = 0.0

    # -- window growth -----------------------------------------------------
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        rtt = state.latest_rtt or state.srtt or 0.1
        target = self._cubic_target(state, ctx.now, rtt)
        if self.tcp_friendliness:
            target = max(target, self._tcp_friendly_window(state))
        if target > state.cwnd:
            # Spread the growth towards the target over the next RTT.
            state.cwnd += (target - state.cwnd) / max(state.cwnd, 1.0)
        else:
            # Far beyond the target: grow extremely slowly (Linux: cwnd/100 ACKs).
            state.cwnd += 1.0 / (100.0 * max(state.cwnd, 1.0))

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # Within a clean run ``now`` and the RTT view are constant, so the
        # cubic target is one fixed value; only the TCP-friendliness estimate
        # and the window itself evolve per ACK. The loop replays the exact
        # scalar operation sequence with those two hoisted to locals.
        if count <= 0:
            return 0, None
        rtt = state.latest_rtt or state.srtt or 0.1
        now = ctx.now
        if self._epoch_start is None:
            self._start_epoch(state, now)
        t = now - self._epoch_start + rtt
        target = self.scaling_constant * (t - self._k) ** 3 + self._origin_point
        friendly = self.tcp_friendliness
        friendly_rtt = state.latest_rtt or state.srtt
        friendly_valid = friendly_rtt is not None and friendly_rtt > 0
        aimd_rate = 3.0 * (1.0 - self.beta) / (1.0 + self.beta)
        # The usual case (friendliness on, an RTT known) leaves the scalar
        # loop after its first ACK once cwnd >= 1: every later ACK finds the
        # friendliness counter reset to 0.0 by its predecessor, so it reads
        # exactly 1.0, and neither branch lowers cwnd, so max(cwnd, 1.0) is
        # cwnd for the rest of the run.
        settled = friendly and friendly_valid
        cwnd = state.cwnd
        ack_count = self._ack_count
        tcp_cwnd = self._tcp_cwnd
        done = 0
        while done < count:
            done += 1
            ack_count += 1.0
            goal = target
            if friendly:
                if friendly_valid:
                    tcp_cwnd += aimd_rate * (ack_count / max(cwnd, 1.0))
                    ack_count = 0.0
                    if tcp_cwnd > goal:
                        goal = tcp_cwnd
                elif goal < 0.0:
                    # _tcp_friendly_window returned 0.0; max(target, 0.0).
                    goal = 0.0
            if goal > cwnd:
                cwnd += (goal - cwnd) / max(cwnd, 1.0)
            else:
                cwnd += 1.0 / (100.0 * max(cwnd, 1.0))
            if settled and cwnd >= 1.0:
                break
        if settled:
            for _ in range(count - done):
                tcp_cwnd += aimd_rate * (1.0 / cwnd)
                goal = tcp_cwnd if tcp_cwnd > target else target
                if goal > cwnd:
                    cwnd += (goal - cwnd) / cwnd
                else:
                    cwnd += 1.0 / (100.0 * cwnd)
        state.cwnd = cwnd
        self._ack_count = ack_count
        self._tcp_cwnd = tcp_cwnd
        return count, None

    def _start_epoch(self, state: CongestionState, now: float) -> None:
        """Open a cubic epoch (shared by the scalar and batch growth paths)."""
        self._epoch_start = now
        self._ack_count = 0.0
        self._tcp_cwnd = state.cwnd
        if state.cwnd < self._w_last_max:
            self._k = ((self._w_last_max - state.cwnd)
                       / self.scaling_constant) ** (1.0 / 3.0)
            self._origin_point = self._w_last_max
        else:
            self._k = 0.0
            self._origin_point = state.cwnd

    def _cubic_target(self, state: CongestionState, now: float, rtt: float) -> float:
        if self._epoch_start is None:
            self._start_epoch(state, now)
        self._ack_count += 1.0
        t = now - self._epoch_start + rtt
        return self.scaling_constant * (t - self._k) ** 3 + self._origin_point

    def _tcp_friendly_window(self, state: CongestionState) -> float:
        """Window an AIMD flow with the same beta would have reached."""
        rtt = state.latest_rtt or state.srtt
        if rtt is None or rtt <= 0:
            return 0.0
        # Estimate derived in the CUBIC paper: per RTT the equivalent AIMD flow
        # grows by 3 * (1 - beta) / (1 + beta) packets.
        aimd_rate = 3.0 * (1.0 - self.beta) / (1.0 + self.beta)
        self._tcp_cwnd += aimd_rate * (self._ack_count / max(state.cwnd, 1.0))
        self._ack_count = 0.0
        return self._tcp_cwnd

    # -- congestion events ---------------------------------------------------
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        cwnd = state.cwnd
        if self.fast_convergence and cwnd < self._w_last_max:
            self._w_last_max = cwnd * (1.0 + self.beta) / 2.0
        else:
            self._w_last_max = cwnd
        self._reset_epoch()
        return max(cwnd * self.beta, 2.0)

    def on_timeout(self, state: CongestionState, now: float) -> None:
        super().on_timeout(state, now)
        # The cubic epoch restarts when congestion avoidance resumes.
        self._reset_epoch()

    @property
    def w_last_max(self) -> float:
        return self._w_last_max

    @property
    def k(self) -> float:
        """Time (seconds) from epoch start to the plateau at w_last_max."""
        return self._k


class CubicA(Cubic):
    """CUBIC as shipped in Linux kernels up to and including 2.6.25."""

    name = "cubic-a"
    label = "CUBIC-a (Linux <= 2.6.25)"
    beta = 819.0 / 1024.0


class CubicB(Cubic):
    """CUBIC as shipped in Linux kernels 2.6.26 and later."""

    name = "cubic-b"
    label = "CUBIC-b (Linux >= 2.6.26)"
    beta = 717.0 / 1024.0
