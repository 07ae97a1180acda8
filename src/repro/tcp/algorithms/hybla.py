"""TCP Hybla (Caini & Firrincieli, 2004).

Hybla compensates long-RTT (satellite) paths by scaling the growth of both
slow start and congestion avoidance with ``rho = RTT / RTT0``, where ``RTT0``
is a 25 ms reference. The paper lists Hybla in Table I but excludes it from
identification because it targets satellite links rather than Web servers; it
is implemented here so the substrate covers the full Table I catalogue.
"""

from __future__ import annotations

from repro.tcp.base import (
    AckContext,
    CongestionAvoidance,
    CongestionState,
    additive_increase_run,
)


class Hybla(CongestionAvoidance):
    """TCP Hybla congestion avoidance."""

    name = "hybla"
    label = "HYBLA"
    delay_based = False
    batch_decoupled = True

    #: Reference round-trip time in seconds.
    reference_rtt = 0.025
    #: Multiplicative decrease parameter (Hybla keeps RENO's halving).
    beta = 0.5
    #: Cap on rho to avoid pathological growth with the 1 s emulated RTT.
    max_rho = 16.0

    def _rho(self, state: CongestionState) -> float:
        rtt = state.latest_rtt or state.srtt
        if rtt is None or rtt <= 0:
            return 1.0
        return min(max(rtt / self.reference_rtt, 1.0), self.max_rho)

    def on_ack_slow_start(self, state: CongestionState, ctx: AckContext) -> None:
        rho = self._rho(state)
        state.cwnd += 2.0 ** rho - 1.0

    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        rho = self._rho(state)
        state.cwnd += (rho ** 2) / max(state.cwnd, 1.0)

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        state.cwnd = additive_increase_run(state.cwnd, self._rho(state) ** 2,
                                           count)
        return count, None

    def ssthresh_after_loss(self, state: CongestionState) -> float:
        return state.cwnd * self.beta
