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
    """Smoothed RTT / RTT variance estimator with exponential backoff.

    ``rttvar`` reads through a property (installed below the class, so it
    stays a dataclass field and ``repr`` and ``==`` show it): once a sample
    leaves ``srtt`` fixed, each further one only moves rttvar by
    ``rttvar = (1 - beta) * rttvar + term`` with one constant ``term``, and
    :meth:`observe_run` owes those steps instead of running them; reading
    ``rttvar`` applies them first.
    """

    initial_rto: float = DEFAULT_INITIAL_RTO
    min_rto: float = DEFAULT_MIN_RTO
    max_rto: float = DEFAULT_MAX_RTO
    min_variance_term: float = DEFAULT_MIN_VARIANCE_TERM
    alpha: float = 1.0 / 8.0
    beta: float = 1.0 / 4.0
    srtt: float | None = field(default=None, init=False)
    rttvar: float | None = field(default=None, init=False)
    backoff_exponent: int = field(default=0, init=False)
    #: rttvar before the owed steps, how many ``rttvar = (1 - beta) *
    #: rttvar + term`` steps are owed, and their ``term`` (plain class
    #: defaults, not fields).
    _rttvar = None
    _owed = 0
    _term = 0.0

    def _settled_rttvar(self) -> float | None:
        """rttvar after the owed steps, stopping at its fixed point.

        Each owed step is the one :meth:`observe` takes for a sample that
        leaves srtt unchanged, ``(1 - beta) * rttvar + beta * abs(srtt -
        sample)`` with the product already taken as ``term``, so the steps
        run the same floating-point operations.
        """
        owed = self._owed
        if owed:
            self._owed = 0
            rttvar = self._rttvar
            one_minus_beta = 1 - self.beta
            term = self._term
            for _ in range(owed):
                next_rttvar = one_minus_beta * rttvar + term
                if next_rttvar == rttvar:
                    break
                rttvar = next_rttvar
            self._rttvar = rttvar
        return self._rttvar

    def _rttvar_down_to(self, floor: float) -> float:
        """Apply owed steps only while ``4 * rttvar`` is above ``floor``.

        The steps are the ones :meth:`_settled_rttvar` runs, in the same
        order; those left stay owed, so a later read continues from here.
        """
        rttvar = self._rttvar
        owed = self._owed
        one_minus_beta = 1 - self.beta
        term = self._term
        while owed and 4.0 * rttvar > floor:
            rttvar = one_minus_beta * rttvar + term
            owed -= 1
        self._rttvar = rttvar
        self._owed = owed
        return rttvar

    def _set_rttvar(self, value: float | None) -> None:
        # Steps owed to the old value are moot once it is overwritten.
        self._owed = 0
        self._rttvar = value

    def observe(self, rtt_sample: float) -> None:
        """Feed one RTT sample (seconds) into the estimator.

        Samples from retransmitted segments must not be fed (Karn's rule);
        the caller is responsible for that filtering. Any owed rttvar steps
        are applied first.
        """
        if rtt_sample <= 0:
            raise ValueError("RTT sample must be positive")
        if self.srtt is None:
            self.srtt = rtt_sample
            self.rttvar = rtt_sample / 2.0
        else:
            rttvar = self._settled_rttvar()
            self._rttvar = ((1 - self.beta) * rttvar
                            + self.beta * abs(self.srtt - rtt_sample))
            self.srtt = (1 - self.alpha) * self.srtt + self.alpha * rtt_sample
        self.backoff_exponent = 0

    def observe_run(self, rtt_sample: float, count: int) -> None:
        """Feed ``count`` identical RTT samples into the estimator.

        Bit-identical to calling :meth:`observe` ``count`` times -- the steps
        perform the same floating-point operations in the same order -- but
        with the per-call attribute traffic hoisted out. The batched ACK
        engine uses this for a clean prefix's ACKs, where every sample is
        the same ``now - sent_at`` value.

        A step's srtt is a function of srtt alone, so once a step leaves it
        unchanged it stays fixed: from there on only rttvar moves, by the
        constant ``term = beta * |srtt - sample|`` (zero when srtt equals
        the sample, a few ulps' worth when srtt stuck just short of it).
        Those steps, and the ones later runs of the same term add, are owed
        rather than run: reading ``rttvar`` applies them, stopping at
        rttvar's own fixed point, where every later step would change
        nothing either.
        """
        if count <= 0:
            return
        if rtt_sample <= 0:
            raise ValueError("RTT sample must be positive")
        srtt = self.srtt
        alpha, beta = self.alpha, self.beta
        one_minus_alpha, one_minus_beta = 1 - alpha, 1 - beta
        if srtt is None:
            srtt = rtt_sample
            rttvar = rtt_sample / 2.0
            count -= 1
        elif one_minus_alpha * srtt + alpha * rtt_sample == srtt:
            # Every step of this run is an rttvar step by one term.
            term = beta * abs(srtt - rtt_sample)
            if self._owed and term != self._term:
                self._settled_rttvar()
            self._owed += count
            self._term = term
            self.backoff_exponent = 0
            return
        else:
            rttvar = self._settled_rttvar()
        while count > 0:
            next_srtt = one_minus_alpha * srtt + alpha * rtt_sample
            if next_srtt == srtt:
                break
            rttvar = one_minus_beta * rttvar + beta * abs(srtt - rtt_sample)
            srtt = next_srtt
            count -= 1
        # Any steps left move rttvar alone, by one term: owe them.
        self.srtt = srtt
        self._rttvar = rttvar
        self._owed = count
        self._term = beta * abs(srtt - rtt_sample)
        self.backoff_exponent = 0

    def current_rto(self) -> float:
        """Return the retransmission timeout, including any backoff.

        The owed rttvar steps move rttvar from its current value towards
        the fixed point ``term / beta`` of ``r = (1 - beta) * r + term``, so
        no value on the way exceeds the larger of the two (the fixed point
        is taken twice over, which covers each step's rounding). While four
        times the fixed point stays at or below ``min_variance_term``, only
        the steps that bring ``4 * rttvar`` down to that floor are applied:
        from there the timeout is the same at every step, and the rest stay
        owed. Otherwise all of them are applied first.
        """
        rttvar = self._rttvar
        if self.srtt is None or rttvar is None:
            base = self.initial_rto
        else:
            floor = self.min_variance_term
            variance = 4.0 * rttvar
            if self._owed:
                if 8.0 * self._term > self.beta * floor:
                    variance = 4.0 * self._settled_rttvar()
                elif variance > floor:
                    variance = 4.0 * self._rttvar_down_to(floor)
            base = self.srtt + max(variance, floor)
        base = min(max(base, self.min_rto), self.max_rto)
        # The exponent is capped purely to keep the arithmetic finite; the
        # max_rto clamp dominates long before the cap is reached.
        backoff = 2.0 ** min(self.backoff_exponent, 32)
        return min(base * backoff, self.max_rto)

    def back_off(self) -> None:
        """Double the RTO after a retransmission timeout (exponential backoff)."""
        self.backoff_exponent += 1


RtoEstimator.rttvar = property(
    RtoEstimator._settled_rttvar, RtoEstimator._set_rttvar,
    doc="RTT variance, with any owed steps applied.")
