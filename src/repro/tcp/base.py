"""Congestion avoidance algorithm interface.

The paper characterises a congestion avoidance algorithm by two features
(Section III-B): the multiplicative decrease parameter ``beta`` that sets the
slow start threshold after a loss or timeout, and the window growth function
that drives the congestion window during congestion avoidance. Every algorithm
in :mod:`repro.tcp.algorithms` implements the interface defined here; the
sender state machine in :mod:`repro.tcp.connection` calls it.

All windows are expressed in packets (MSS-sized units), matching both the
paper's notation and the granularity at which CAAI observes the server.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

#: ssthresh is never allowed below two packets (RFC 5681).
MIN_SSTHRESH = 2.0
#: cwnd is never allowed below one packet.
MIN_CWND = 1.0


@dataclass
class CongestionState:
    """Congestion-control view of a TCP connection.

    The sender owns one instance and shares it with its congestion avoidance
    algorithm. The algorithm mutates ``cwnd`` (and occasionally ``ssthresh``);
    everything else is maintained by the sender.
    """

    mss: int
    cwnd: float = 2.0
    ssthresh: float = math.inf
    #: Smallest RTT sample seen on the connection (seconds).
    min_rtt: float = math.inf
    #: Largest RTT sample seen on the connection (seconds).
    max_rtt: float = 0.0
    #: Exponentially smoothed RTT (seconds), None until the first sample.
    srtt: float | None = None
    #: Most recent RTT sample (seconds), None until the first sample.
    latest_rtt: float | None = None
    #: Congestion window just before the most recent congestion event.
    w_max: float = 0.0
    #: Time of the most recent congestion event (loss or timeout), or None.
    last_congestion_time: float | None = None
    #: Number of completed RTT rounds spent in congestion avoidance since the
    #: last congestion event.
    avoidance_rounds: int = 0
    #: Packets acknowledged during the current RTT round.
    acked_in_round: int = 0
    #: RTT measured for the most recently completed round (seconds).
    last_round_rtt: float | None = None

    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def queueing_delay(self) -> float:
        """Current estimate of queueing delay (seconds) from RTT inflation."""
        if self.latest_rtt is None or not math.isfinite(self.min_rtt):
            return 0.0
        return max(0.0, self.latest_rtt - self.min_rtt)

    def clamp(self) -> None:
        """Enforce the floors on cwnd and ssthresh after algorithm updates."""
        if self.cwnd < MIN_CWND:
            self.cwnd = MIN_CWND
        if self.ssthresh < MIN_SSTHRESH:
            self.ssthresh = MIN_SSTHRESH


@dataclass(frozen=True)
class AckContext:
    """Per-ACK information handed to the algorithm.

    Attributes:
        now: current time in seconds.
        rtt_sample: RTT measured from the segment this ACK covers, or None
            when the ACK acknowledged only retransmitted data (Karn's rule).
        newly_acked_packets: number of previously unacknowledged packets this
            cumulative ACK covers. With the per-packet ACKs CAAI sends this is
            normally one; it is larger when an earlier ACK was lost.
        round_completed: True when this ACK closes the current RTT round.
    """

    now: float
    rtt_sample: float | None
    newly_acked_packets: int
    round_completed: bool = False


class CongestionAvoidance(ABC):
    """Base class for congestion avoidance algorithms.

    Subclasses implement the congestion-avoidance window growth and the
    multiplicative decrease. Slow start is handled by the sender (the paper
    relies on the standard slow start behaviour to find the boundary RTT), but
    an algorithm may customise it by overriding :meth:`on_ack_slow_start`.
    """

    #: Registry name, e.g. ``"cubic-b"``. Set by each subclass.
    name: str = "abstract"
    #: Human readable label used in tables, e.g. ``"CUBIC (>= 2.6.26)"``.
    label: str = "abstract"
    #: True for algorithms that use delay signals (affects example tooling only).
    delay_based: bool = False
    #: Whether the batched ACK engine may register a clean run's (identical)
    #: RTT samples with the sender's RTO estimator *before* running the
    #: window growth, instead of interleaving registration and growth per
    #: ACK as the scalar engine does. Opting in asserts two properties of
    #: the growth hooks: (a) they read at most ``latest_rtt`` / ``min_rtt``
    #: / ``max_rtt`` (constant under a run of identical samples) but not the
    #: evolving ``srtt``, and (b) they ignore ``ctx.newly_acked_packets``
    #: (so the engine may batch runs whose ACKs cover more than one packet:
    #: a first ACK that jumps after an ACK was lost, or a stretch-ACK run
    #: with ``step > 1`` whose every ACK covers ``step`` packets, as behind
    #: a thinning middlebox). The conservative default keeps unknown
    #: subclasses on the per-ACK interleaved path, which batches only
    #: per-packet ACKs; every registry algorithm opts in except Westwood+,
    #: whose idle-gap detector reads ``srtt`` and whose bandwidth filter
    #: counts ``newly_acked_packets`` on every ACK.
    batch_decoupled: bool = False

    def on_connection_start(self, state: CongestionState) -> None:
        """Initialise per-connection algorithm state."""

    # -- slow start -------------------------------------------------------
    def on_ack_slow_start(self, state: CongestionState, ctx: AckContext) -> None:
        """Grow the window during slow start.

        The default is the standard slow start used by every deployed stack:
        one packet per received ACK, independent of how many packets the ACK
        covers (Linux without appropriate byte counting). This matters for
        CAAI: a lost ACK therefore reduces the observed growth, which is what
        the boundary-RTT estimator of Section V-A corrects for.
        """
        state.cwnd += 1.0

    # -- congestion avoidance --------------------------------------------
    @abstractmethod
    def on_ack_avoidance(self, state: CongestionState, ctx: AckContext) -> None:
        """Grow the window during congestion avoidance (called once per ACK)."""

    def on_ack_avoidance_batch(self, state: CongestionState, ctx: AckContext,
                               count: int) -> tuple[int, list[float] | None]:
        """Grow the window for up to ``count`` consecutive avoidance ACKs.

        Returns ``(consumed, cwnd_log)``. Contract (enforced by the
        batch/scalar parity tests):

        * processing ``consumed`` ACKs must be bit-identical to that many
          sequential :meth:`on_ack_avoidance` calls with the same (frozen,
          constant) ``ctx`` -- overrides therefore replay the exact
          floating-point operation sequence of the scalar hook, merely
          hoisting attribute access and allocation out of the loop;
        * ``consumed`` may be less than ``count`` only when the window fell
          back below ``ssthresh`` (the scalar engine would route the next
          ACK through slow start again); implementations that can shrink the
          window must stop there;
        * ``cwnd_log`` is ``None`` when the implementation guarantees
          ``cwnd`` evolved monotonically non-decreasing across the run (the
          sender then derives the transmission window from the final value
          alone), or the list of ``cwnd`` values after each processed ACK
          otherwise;
        * splitting a run (``count = a`` then ``count = b``) must equal one
          ``count = a + b`` call, so the sender may peel off the final ACK of
          a round.

        The default loops over the scalar hook and logs every ``cwnd``, which
        satisfies the contract for any subclass. A class that overrides
        :meth:`on_ack_avoidance` without revisiting its inherited batch
        override is detected by the sender and routed back to this default.
        """
        log: list[float] = []
        append = log.append
        consumed = 0
        while consumed < count:
            self.on_ack_avoidance(state, ctx)
            append(state.cwnd)
            consumed += 1
            if state.cwnd < state.ssthresh:
                break
        return consumed, log

    def on_round_complete(self, state: CongestionState, ctx: AckContext) -> None:
        """Hook invoked once per RTT round (used by delay-based algorithms)."""

    # -- explicit congestion notification ---------------------------------
    def on_ecn_feedback(self, state: CongestionState, marked: int,
                        acked: int) -> None:
        """Hook invoked when the receiver reports ECN congestion marks.

        ``marked`` of the ``acked`` packets covered by the feedback carried a
        congestion-experienced codepoint. Only fed when a link actually marks
        (the ``ecn_mark_probability`` knob, default off), and never from the
        per-ACK fast paths, so algorithms ignoring it -- this default no-op --
        behave bit-identically with and without the plumbing.
        """

    # -- congestion events ------------------------------------------------
    @abstractmethod
    def ssthresh_after_loss(self, state: CongestionState) -> float:
        """Return the new slow start threshold after a loss event or timeout.

        This encodes the multiplicative decrease parameter: the paper's
        feature ``beta`` is ``ssthresh_after_loss(state) / state.cwnd``.
        """

    def multiplicative_decrease(self, state: CongestionState) -> float:
        """Return ``beta`` = ssthresh after loss divided by the current window."""
        if state.cwnd <= 0:
            return 0.0
        return self.ssthresh_after_loss(state) / state.cwnd

    def on_timeout(self, state: CongestionState, now: float) -> None:
        """React to a retransmission timeout.

        The standard reaction (RFC 5681): remember the pre-timeout window,
        apply the multiplicative decrease to obtain the new ssthresh, and
        collapse the window to one packet. Algorithms that need additional
        state resets override this and call ``super().on_timeout``.
        """
        state.w_max = state.cwnd
        state.ssthresh = max(MIN_SSTHRESH, self.ssthresh_after_loss(state))
        state.cwnd = MIN_CWND
        state.last_congestion_time = now
        state.avoidance_rounds = 0
        state.clamp()

    def on_loss_event(self, state: CongestionState, now: float) -> None:
        """React to a fast-retransmit loss event (three duplicate ACKs).

        CAAI deliberately emulates timeouts rather than loss events
        (Section IV-B), but the sender supports both so the substrate is a
        complete TCP model.
        """
        state.w_max = state.cwnd
        state.ssthresh = max(MIN_SSTHRESH, self.ssthresh_after_loss(state))
        state.cwnd = state.ssthresh
        state.last_congestion_time = now
        state.avoidance_rounds = 0
        state.clamp()

    # -- misc --------------------------------------------------------------
    def time_since_congestion(self, state: CongestionState, now: float) -> float:
        if state.last_congestion_time is None:
            return 0.0
        return max(0.0, now - state.last_congestion_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"<{type(self).__name__} name={self.name!r}>"


class RenoLikeMixin:
    """Shared helper implementing the AIMD additive increase of one per RTT."""

    @staticmethod
    def reno_increase(state: CongestionState) -> None:
        state.cwnd += 1.0 / max(state.cwnd, 1.0)
