"""DCTCP (Alizadeh et al., SIGCOMM 2010) -- ECN-fraction proportional decrease.

DCTCP keeps an EWMA ``alpha`` of the fraction of packets that carried an ECN
congestion-experienced mark in each window of data::

    alpha <- (1 - g) * alpha + g * F        (g = 1/16)

and, in a window that saw at least one mark, shrinks the congestion window
proportionally to the *extent* of congestion instead of halving::

    cwnd <- cwnd * (1 - alpha / 2)

The window growth between marks is RENO's additive increase.

ECN marks reach the algorithm through the sender's
:meth:`~repro.tcp.connection.TcpSender.ecn_feedback` path, which only the
ECN-enabled link knob feeds (``NetemLink.ecn_mark_probability`` /
``NetworkCondition.ecn_mark_rate``, both default-off). Without any marks
``alpha`` stays at its conservative initial value of 1.0, so
``ssthresh_after_loss`` degrades to RENO's halving and the CAAI trace is
indistinguishable from RENO -- the honest consequence of probing a DCTCP
server through a non-ECN path.
"""

from __future__ import annotations

from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState

#: Floor on the window after a proportional reduction (RFC 8257 keeps two
#: packets in flight so the mark feedback loop never stalls).
MIN_REDUCED_CWND = 2.0


class Dctcp(CongestionAvoidance):
    """DCTCP: RENO growth plus ECN-fraction proportional decrease."""

    name = "dctcp"
    label = "DCTCP"
    delay_based = False
    batch_decoupled = True

    #: EWMA gain of the mark-fraction estimator (RFC 8257's ``g`` = 1/16).
    GAIN = 1.0 / 16.0
    #: Initial ``alpha``: RFC 8257 recommends 1.0 so a freshly started
    #: connection reacts conservatively (RENO's halving) until it has
    #: observed real mark fractions.
    INITIAL_ALPHA = 1.0

    def __init__(self) -> None:
        self.alpha = self.INITIAL_ALPHA
        self._marked = 0
        self._acked = 0

    # -- lifecycle ---------------------------------------------------------
    def on_connection_start(self, state: CongestionState) -> None:
        self.alpha = self.INITIAL_ALPHA
        self._marked = 0
        self._acked = 0

    # -- window growth -----------------------------------------------------
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        # One packet per congestion window's worth of ACKs, exactly RENO.
        state.cwnd += 1.0 / max(state.cwnd, 1.0)

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, None]:
        # Bit-identical to RENO's batch hook: same floating-point sequence,
        # monotone growth, so no cwnd log is needed.
        cwnd = state.cwnd
        for _ in range(count):
            cwnd += 1.0 / max(cwnd, 1.0)
        state.cwnd = cwnd
        return count, None

    # -- ECN feedback ------------------------------------------------------
    def on_ecn_feedback(self, state: CongestionState, marked: int,
                        acked: int) -> None:
        """Accumulate one batch of receiver mark feedback.

        Called by the sender whenever the receiver reports how many of the
        ``acked`` packets it saw carried a congestion-experienced mark; the
        counts are folded into ``alpha`` at the next round boundary.
        """
        self._marked += marked
        self._acked += acked

    def on_round_complete(self, state: CongestionState, ctx: AckContext) -> None:
        if self._acked <= 0:
            # No ECN feedback this round (in particular: the default,
            # ECN-free links) -- alpha and the window are left untouched, so
            # the trace stays bit-identical to RENO's.
            return
        fraction = self._marked / self._acked
        self.alpha = (1.0 - self.GAIN) * self.alpha + self.GAIN * fraction
        if self._marked > 0 and not state.in_slow_start():
            state.cwnd = max(MIN_REDUCED_CWND,
                             state.cwnd * (1.0 - self.alpha / 2.0))
            # Keep the sender in congestion avoidance after the reduction:
            # DCTCP's cut is a rate adjustment, not a loss recovery.
            state.ssthresh = min(state.ssthresh, state.cwnd)
        elif self._marked > 0:
            # Marks during slow start end it, like a conventional ECN
            # response (RFC 3168) would.
            state.ssthresh = min(state.ssthresh, state.cwnd)
        self._marked = 0
        self._acked = 0

    # -- multiplicative decrease -------------------------------------------
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        # Proportional to the observed congestion extent; with no marks ever
        # seen alpha is 1.0 and this is RENO's halving.
        return state.cwnd * (1.0 - self.alpha / 2.0)
