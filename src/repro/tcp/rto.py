"""Retransmission timeout estimation (RFC 6298).

The emulated timeout is the centrepiece of a CAAI probe: the prober stops
acknowledging once the server's window exceeds ``w_timeout`` and waits for the
server's retransmission timer to fire. The paper notes (Section IV-B) that
initial TCP timeouts are usually between 2.5 and 6.0 seconds, which is why an
emulated RTT of 1.0 s is safe. This module reproduces the standard estimator
so those dynamics emerge rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Conservative initial RTO before any RTT sample exists (RFC 6298 uses 1 s,
#: but deployed stacks commonly use 3 s; the paper cites 2.5-6.0 s).
DEFAULT_INITIAL_RTO = 3.0
DEFAULT_MIN_RTO = 0.2
DEFAULT_MAX_RTO = 60.0
#: Floor on the variance contribution to the RTO (Linux keeps 4*rttvar at or
#: above tcp_rto_min, 200 ms). Without it a path with very stable RTTs would
#: compute an RTO barely above the RTT and time out spuriously when CAAI's
#: environment B raises the emulated RTT from 0.8 s to 1.0 s.
DEFAULT_MIN_VARIANCE_TERM = 0.25


@dataclass
class RtoEstimator:
    """Smoothed RTT / RTT variance estimator with exponential backoff."""

    initial_rto: float = DEFAULT_INITIAL_RTO
    min_rto: float = DEFAULT_MIN_RTO
    max_rto: float = DEFAULT_MAX_RTO
    min_variance_term: float = DEFAULT_MIN_VARIANCE_TERM
    alpha: float = 1.0 / 8.0
    beta: float = 1.0 / 4.0
    srtt: float | None = field(default=None, init=False)
    rttvar: float | None = field(default=None, init=False)
    backoff_exponent: int = field(default=0, init=False)

    def observe(self, rtt_sample: float) -> None:
        """Feed one RTT sample (seconds) into the estimator.

        Samples from retransmitted segments must not be fed (Karn's rule);
        the caller is responsible for that filtering.
        """
        if rtt_sample <= 0:
            raise ValueError("RTT sample must be positive")
        if self.srtt is None:
            self.srtt = rtt_sample
            self.rttvar = rtt_sample / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = (1 - self.beta) * self.rttvar + self.beta * abs(self.srtt - rtt_sample)
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt_sample
        self.backoff_exponent = 0

    def observe_run(self, rtt_sample: float, count: int) -> None:
        """Feed ``count`` identical RTT samples into the estimator.

        Bit-identical to calling :meth:`observe` ``count`` times -- the loop
        performs the same floating-point operations in the same order -- but
        with the per-call attribute traffic hoisted out. The batched ACK
        engine uses this for a round's run of equally-timed ACKs, where every
        sample is the same ``now - sent_at`` value.

        Each step is a function of ``(srtt, rttvar)`` alone, so once a step
        leaves both unchanged every later step would too: the loop stops at
        that fixed point.
        """
        if count <= 0:
            return
        if rtt_sample <= 0:
            raise ValueError("RTT sample must be positive")
        srtt = self.srtt
        rttvar = self.rttvar
        if srtt is None:
            srtt = rtt_sample
            rttvar = rtt_sample / 2.0
            count -= 1
        alpha, beta = self.alpha, self.beta
        one_minus_alpha, one_minus_beta = 1 - alpha, 1 - beta
        for _ in range(count):
            next_rttvar = one_minus_beta * rttvar + beta * abs(srtt - rtt_sample)
            next_srtt = one_minus_alpha * srtt + alpha * rtt_sample
            if next_rttvar == rttvar and next_srtt == srtt:
                break
            rttvar = next_rttvar
            srtt = next_srtt
        self.srtt = srtt
        self.rttvar = rttvar
        self.backoff_exponent = 0

    def current_rto(self) -> float:
        """Return the retransmission timeout, including any backoff."""
        if self.srtt is None or self.rttvar is None:
            base = self.initial_rto
        else:
            base = self.srtt + max(4.0 * self.rttvar, self.min_variance_term)
        base = min(max(base, self.min_rto), self.max_rto)
        # The exponent is capped purely to keep the arithmetic finite; the
        # max_rto clamp dominates long before the cap is reached.
        backoff = 2.0 ** min(self.backoff_exponent, 32)
        return min(base * backoff, self.max_rto)

    def back_off(self) -> None:
        """Double the RTO after a retransmission timeout (exponential backoff)."""
        self.backoff_exponent += 1

    def reset_backoff(self) -> None:
        self.backoff_exponent = 0
