"""TCP sender state machine.

This is the server-side engine a CAAI probe exercises: it transmits MSS-sized
segments under the control of a pluggable congestion avoidance algorithm,
performs standard slow start, reacts to retransmission timeouts, and supports
the optional stack behaviours the paper has to work around -- F-RTO
(Section IV-C, "How to Deal With Forward RTO-Recovery"), slow start threshold
caching, and Linux's burstiness control (congestion window moderation).

The sender is a passive object: callers (the round-level gatherer in
:mod:`repro.core.gather`, the packet-level prober in
:mod:`repro.core.prober`, and the Web server model in
:mod:`repro.web.server`) feed it ACKs and clock readings and collect what it
transmits as :class:`~repro.tcp.packet.SegmentBlock` records, one per
contiguous burst; the packet-level prober expands them at its link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.envknobs import env_flag
from repro.tcp.base import AckContext, CongestionAvoidance, CongestionState, MIN_CWND
from repro.tcp.packet import SegmentBlock
from repro.tcp.rto import RtoEstimator
from repro.tcp.slow_start import make_slow_start

#: Environment knob: set ``REPRO_ACK_BATCH=0`` to force the scalar per-ACK
#: engine everywhere (the batched fast path is bit-identical, so this exists
#: for debugging and for the parity tests, not for correctness).
ACK_BATCH_ENV = "REPRO_ACK_BATCH"

#: Runs shorter than this are processed by the scalar loop outright; the
#: batch bookkeeping only pays for itself on longer runs.
_MIN_BATCH_RUN = 4


def ack_batch_enabled() -> bool:
    """Whether the batched ACK fast path is enabled (read per sender).

    Returns:
        The validated value of ``REPRO_ACK_BATCH`` (default ``True``).
    """
    return env_flag(ACK_BATCH_ENV, default=True)


def _defining_class(alg_type: type, attribute: str) -> type | None:
    for klass in alg_type.__mro__:
        if attribute in vars(klass):
            return klass
    return None


def _defined_below(alg_type: type, attribute: str, anchor: type) -> bool:
    """Whether ``attribute`` is (re)defined in a proper subclass of ``anchor``."""
    defining = _defining_class(alg_type, attribute)
    return (defining is not None and defining is not anchor
            and issubclass(defining, anchor))


def _batch_override_consistent(alg_type: type) -> bool:
    """Whether the class's batch hook was written for its scalar growth rule.

    A subclass that overrides ``on_ack_avoidance`` while inheriting a batch
    override written for an ancestor's growth rule would diverge from the
    scalar engine; such classes are routed back to the safe per-ACK default.
    """
    batch_cls = _defining_class(alg_type, "on_ack_avoidance_batch")
    if batch_cls is None or batch_cls is CongestionAvoidance:
        return True
    return not _defined_below(alg_type, "on_ack_avoidance", batch_cls)


def _batch_decoupled_trusted(alg_type: type) -> bool:
    """Whether the class's ``batch_decoupled`` flag covers its growth hooks.

    The flag asserts properties of *both* growth hooks (they ignore the
    evolving ``srtt`` and ``ctx.newly_acked_packets``); a subclass that
    overrides either hook below the class that made the assertion may have
    invalidated it, so such classes fall back to the per-ACK interleaved
    path, which batches only runs of per-packet ACKs (``step == 1``).
    """
    flag_cls = _defining_class(alg_type, "batch_decoupled")
    if flag_cls is None or flag_cls is CongestionAvoidance:
        return True  # the conservative default (False) applies anyway
    return not (_defined_below(alg_type, "on_ack_avoidance", flag_cls)
                or _defined_below(alg_type, "on_ack_slow_start", flag_cls))


@dataclass
class SenderConfig:
    """Configuration of a TCP sender.

    Most fields model standard, RFC-described behaviour; the trailing group of
    "quirk" fields models server behaviours the paper observed in the wild
    (Section VII-B3) and uses to explain its special-case traces.
    """

    mss: int = 1460
    #: Initial congestion window in packets (the paper notes 1-10 in the wild).
    initial_window: int = 2
    #: Initial slow start threshold; infinite unless ssthresh caching applies.
    initial_ssthresh: float = math.inf
    #: Peer receive window in bytes (CAAI advertises about 1 GB).
    receive_window_bytes: int = 65_535 << 14
    #: Send buffer limit in packets; None means unlimited. A finite value
    #: produces the paper's "Bounded Window" special case (Fig. 17).
    send_buffer_packets: float | None = None
    #: Slow start policy: "standard" or "hybrid".
    slow_start: str = "standard"
    #: Enable Forward RTO-Recovery (RFC 5682) spurious-timeout detection.
    use_frto: bool = False
    #: Enable Linux congestion-window moderation (burstiness control).
    use_cwnd_moderation: bool = False
    #: Packets of headroom allowed above the in-flight count when moderation
    #: is enabled (Linux max_burst is 3).
    moderation_burst: int = 3
    #: RTO estimator seed.
    initial_rto: float = 3.0
    #: Number of duplicate ACKs that trigger a fast retransmit.
    dupack_threshold: int = 3
    # ---- server quirks observed in the Internet census -------------------
    #: The server never reacts to the emulated timeout (invalid trace cause 2).
    responds_to_timeout: bool = True
    #: After a timeout the window stays at one packet ("Remaining at 1 Packet").
    post_timeout_stall: bool = False
    #: The window never grows during congestion avoidance ("Nonincreasing").
    freeze_in_avoidance: bool = False
    #: Ceiling on the window ("Approaching w_timeout"), applied after every
    #: ACK's growth as a hard clamp: the window grows as usual up to it and
    #: never above it.
    approach_ceiling: float | None = None


@dataclass
class TimeoutEvent:
    """Record of a retransmission timeout taken by the sender."""

    at: float
    cwnd_before: float
    ssthresh_after: float


class TcpSender:
    """A TCP sender driven by per-ACK events.

    Sequence numbers are byte-based. Data is modelled as a contiguous stream;
    :meth:`enqueue_bytes` extends it (e.g. when the Web server writes another
    HTTP response). Segments are MSS-sized except possibly the last.
    """

    def __init__(self, algorithm: CongestionAvoidance, config: SenderConfig | None = None):
        self.config = config or SenderConfig()
        if self.config.mss <= 0:
            raise ValueError("MSS must be positive")
        self.algorithm = algorithm
        self.state = CongestionState(
            mss=self.config.mss,
            cwnd=float(self.config.initial_window),
            ssthresh=self.config.initial_ssthresh,
        )
        self.rto = RtoEstimator(initial_rto=self.config.initial_rto)
        self.slow_start_policy = make_slow_start(self.config.slow_start)
        self.algorithm.on_connection_start(self.state)

        self._total_bytes = 0
        self._snd_una = 0          # first unacknowledged packet index
        self._snd_nxt = 0          # next packet index to send
        self._retransmitted: set[int] = set()
        self._timer_deadline: float | None = None
        self._dupack_count = 0
        self._in_recovery = False
        self._recovery_point = 0
        self._frto_state = 0       # 0: inactive, 1: after RTO, 2: awaiting 2nd ACK
        self._frto_saved: tuple[float, float] | None = None
        self._round_end = 0
        self._round_start_time: float | None = None
        self._last_timeout_time: float | None = None
        self._started = False
        self._finished_timeouts: list[TimeoutEvent] = []
        self._had_timeout = False
        self._spurious_timeouts = 0

        # ---- segment-block emission wiring -------------------------------
        #: Send-time bookkeeping: ordered, disjoint ``[start, stop, sent_at]``
        #: spans of packet indices, one per burst sent at one time.
        self._send_spans: list[list] = []
        #: Number of :class:`SegmentBlock` records emitted (diagnostics).
        self.block_records = 0

        # ---- batched ACK engine wiring ----------------------------------
        self._batch_enabled = ack_batch_enabled()
        #: Number of ACK runs the fast path processed (diagnostics/tests).
        self.batch_runs = 0
        alg_type = type(algorithm)
        self._alg_uses_policy_ss = (
            alg_type.on_ack_slow_start is CongestionAvoidance.on_ack_slow_start)
        consistent = _batch_override_consistent(alg_type)
        self._batch_decoupled = (consistent
                                 and _batch_decoupled_trusted(alg_type)
                                 and bool(getattr(algorithm, "batch_decoupled", False)))
        if consistent:
            self._avoidance_batch = algorithm.on_ack_avoidance_batch
        else:
            self._avoidance_batch = (
                lambda state, ctx, count:
                CongestionAvoidance.on_ack_avoidance_batch(algorithm, state, ctx, count))
        self._policy_ack_run = self.slow_start_policy.on_ack_run

    # ------------------------------------------------------------------ data
    @property
    def total_packets(self) -> int:
        """Number of MSS-grid packets the enqueued byte stream spans."""
        return -(-self._total_bytes // self.config.mss) if self._total_bytes else 0

    @property
    def snd_una(self) -> int:
        """First unacknowledged packet index (the cumulative ACK point)."""
        return self._snd_una

    @property
    def snd_nxt(self) -> int:
        """Next packet index to be sent for the first time."""
        return self._snd_nxt

    @property
    def bytes_available(self) -> int:
        """Total application bytes enqueued so far."""
        return self._total_bytes

    @property
    def timeouts(self) -> list[TimeoutEvent]:
        """Retransmission timeouts fired so far, in firing order."""
        return list(self._finished_timeouts)

    @property
    def spurious_timeouts(self) -> int:
        """Timeouts later detected as spurious by F-RTO."""
        return self._spurious_timeouts

    def enqueue_bytes(self, nbytes: int) -> None:
        """Append application data (an HTTP response) to the send stream.

        Args:
            nbytes: Number of bytes to append; must be non-negative.
        """
        if nbytes < 0:
            raise ValueError("cannot enqueue a negative number of bytes")
        self._total_bytes += nbytes

    def all_data_acked(self) -> bool:
        """Whether every enqueued byte has been cumulatively acknowledged.

        Returns:
            True once data exists and the ACK point covers all of it.
        """
        return self._snd_una >= self.total_packets and self.total_packets > 0

    # ----------------------------------------------------------------- clock
    def next_timer_deadline(self) -> float | None:
        """Absolute time of the pending retransmission timeout, if armed.

        Returns:
            The deadline in simulation seconds, or ``None`` when no timer
            is armed.
        """
        return self._timer_deadline

    # ----------------------------------------------------------------- start
    def start(self, now: float) -> list[SegmentBlock]:
        """Transmit the initial window once the first request has been read.

        Args:
            now: Current simulation time.

        Returns:
            The transmitted blocks (empty on a repeated call).
        """
        if self._started:
            return []
        self._started = True
        self._round_start_time = now
        emitted = self._transmit_new_data(now)
        self._round_end = self._snd_nxt
        return emitted

    # ------------------------------------------------------------------ ACKs
    def on_ack(self, ack_seq: int, now: float, *,
               is_duplicate: bool = False) -> list[SegmentBlock]:
        """Process a cumulative ACK for all bytes below ``ack_seq``.

        Args:
            ack_seq: Cumulative byte sequence number being acknowledged.
            now: Current simulation time.
            is_duplicate: Whether the receiver flagged this as a duplicate.

        Returns:
            The blocks the sender transmits in response.
        """
        ack_packets = ack_seq // self.config.mss
        if ack_seq >= self._total_bytes and self._total_bytes > 0:
            ack_packets = max(ack_packets, self.total_packets)
        if is_duplicate or ack_packets <= self._snd_una:
            return self._on_duplicate_ack(now)
        return self._on_new_ack(ack_packets, now)

    def ecn_feedback(self, marked: int, acked: int, now: float) -> None:
        """Report receiver-echoed ECN congestion marks to the algorithm.

        Called by a receiver (the trace gatherer, or the packet-level
        prober) when ``marked`` of ``acked`` recently delivered data packets
        carried the congestion-experienced codepoint. Forwarded straight to
        the algorithm's ``on_ecn_feedback`` hook -- never through the ACK
        engines, so the batched and the scalar per-ACK engine see the
        identical call sequence. Callers only invoke this when a
        link actually marked (the default-off knob), so ECN-free runs are
        byte-identical with or without the plumbing.

        Args:
            marked: Number of packets delivered with a CE mark.
            acked: Total packets the feedback covers (``marked <= acked``).
            now: Current simulation time.
        """
        if marked < 0 or acked < marked:
            raise ValueError(f"ECN feedback needs 0 <= marked <= acked, "
                             f"got marked={marked}, acked={acked}")
        self.algorithm.on_ecn_feedback(self.state, marked, acked)

    def on_ack_packet(self, ack_packets: int, now: float, *,
                      is_duplicate: bool = False) -> list[SegmentBlock]:
        """Process a cumulative ACK expressed in packet units.

        ``ack_packets`` is the number of fully acknowledged MSS-grid packets,
        i.e. the value ``on_ack`` derives from a byte sequence number; the
        trace gatherer works in packet units throughout, so this entry point
        skips the byte conversion. This is the scalar per-ACK engine.

        Args:
            ack_packets: Count of fully acknowledged packets.
            now: Current simulation time.
            is_duplicate: Whether the receiver flagged this as a duplicate.

        Returns:
            The blocks the sender transmits in response.
        """
        if is_duplicate or ack_packets <= self._snd_una:
            return self._on_duplicate_ack(now)
        return self._on_new_ack(ack_packets, now)

    def on_ack_ladder(self, runs: Sequence[tuple[int, int, int]],
                      now: float) -> list[SegmentBlock]:
        """Process a round's ACK ladder expressed as arithmetic progressions.

        ``runs`` is the round's ladder of packet-cumulative ACK values (one
        per ACK that reached the sender) compressed into ``(first, count,
        step)`` runs, in ladder order: the values ``first, first + step, ...,
        first + (count - 1) * step``. ``step == 1`` is a stretch of
        per-packet ACKs, ``step == 0`` repeats one cumulative value (the
        duplicates), and ``step > 1`` is a stretch-ACK run whose every ACK
        covers ``step`` packets (a thinned ACK stream). Behaviour is
        bit-identical to expanding the runs and feeding every value to
        :meth:`on_ack_packet`: the longest *clean* part of a ``step >= 1``
        run -- monotone advances within the current round, no recovery or
        F-RTO state, no cwnd moderation, no post-timeout stall, one send
        time, no retransmitted packet -- takes the batched fast path in O(1)
        bookkeeping (the freeze and ceiling quirks included), and every
        other entry replays through the scalar per-ACK engine before the
        fast path re-engages (the batch/scalar parity matrix and the
        differential harness enforce this).

        Args:
            runs: The compressed ladder: ``(first, count, step)`` tuples in
                ladder order.
            now: Current simulation time.

        Returns:
            The blocks the sender transmits in response to the whole ladder.
        """
        out: list = []
        for first, remaining, step in runs:
            if not step:
                for _ in range(remaining):
                    out.extend(self.on_ack_packet(first, now))
                continue
            while remaining:
                if remaining >= _MIN_BATCH_RUN and self._run_eligible():
                    consumed, emitted = self._fast_packet_run(first, remaining,
                                                              step, now)
                    if consumed:
                        self.batch_runs += 1
                        out.extend(emitted)
                        first += consumed * step
                        remaining -= consumed
                        continue
                out.extend(self.on_ack_packet(first, now))
                first += step
                remaining -= 1
        return out

    # ------------------------------------------------------- batched fast path
    def _run_eligible(self) -> bool:
        """Cheap config/state screening before the per-run checks."""
        config = self.config
        return (self._batch_enabled
                and self._started
                and not self._in_recovery
                and not self._frto_state
                and not config.use_cwnd_moderation
                and not (config.post_timeout_stall and self._had_timeout)
                and self._round_end > self._snd_una)

    def _fast_packet_run(self, first: int, count: int, step: int,
                         now: float) -> tuple[int, list[SegmentBlock]]:
        """Batched fast path for an evenly spaced ACK run, in O(1) screening.

        ``first, first + step, ..., first + (count - 1) * step`` are
        packet-cumulative ACK values (one ``step >= 1`` run from
        :meth:`on_ack_ladder`). The ACKs of a ``step > 1`` run each cover
        several packets, which only ``batch_decoupled`` algorithms may
        batch (contract (b)); the rest stay per-ACK. Because the run is an
        arithmetic progression, the clean-prefix check is range arithmetic
        and the Karn/send-time screening is a single span lookup. Returns
        ``(consumed, emitted)``; ``consumed == 0`` means no prefix long
        enough for the batch bookkeeping was clean and the caller takes the
        scalar path for the next ACK.
        """
        u0 = self._snd_una
        if first <= u0:
            return 0, []
        if (first != u0 + 1 or step != 1) and not self._batch_decoupled:
            return 0, []
        k = count
        room = (self._round_end - first) // step + 1
        if k > room:
            k = room
        if k < _MIN_BATCH_RUN:
            return 0, []
        # Karn's rule screening: the packets sampled for RTTs are
        # ``first - 1 + i * step``; they must share one send time (one span),
        # and no packet in ``[first - 1, last)`` may be a retransmission.
        t0, extent_stop = self._sent_extent(first - 1)
        sampled = (extent_stop - first) // step + 1
        if sampled < k:
            k = sampled
        retransmitted = self._retransmitted
        if retransmitted:
            lo, hi = first - 1, first + (k - 1) * step
            nearest = min((p for p in retransmitted if lo <= p < hi), default=None)
            if nearest is not None:
                k = (nearest - first) // step + 1
        if k < _MIN_BATCH_RUN:
            return 0, []
        return k, self._consume_clean_run(range(first, first + k * step, step),
                                          k, t0, now)

    def _consume_clean_run(self, positions: range, k: int, t0: float,
                           now: float) -> list[SegmentBlock]:
        """Apply a validated clean ACK run and return the emission.

        ``positions`` (a ``range`` of ``k`` increasing packet-cumulative
        values, evenly spaced by the run's step) all sample RTTs from
        packets sent at ``t0``.
        """
        mss = self.config.mss
        total_packets = self.total_packets
        u0 = self._snd_una
        last = positions[k - 1]
        if self._last_timeout_time is not None and t0 < self._last_timeout_time:
            rtt = None
        else:
            rtt = max(now - t0, 1e-9)

        state = self.state
        ctx = AckContext(now=now, rtt_sample=rtt, newly_acked_packets=1)
        rwnd_packets = self.config.receive_window_bytes / mss
        send_buffer = self.config.send_buffer_packets

        def eff_int(cwnd: float) -> int:
            """``int(self.effective_window())`` with the quirks excluded."""
            window = cwnd
            if window > rwnd_packets:
                window = rwnd_packets
            if send_buffer is not None and window > send_buffer:
                window = send_buffer
            return int(window)

        snd_nxt0 = self._snd_nxt
        if rtt is not None and not self._batch_decoupled:
            cap_max = self._run_interleaved(u0, k, ctx, rtt, now, eff_int)
        else:
            # Decoupled flow: register the (identical) RTT samples once, then
            # run the growth in batch. Registration only moves ``srtt``
            # between ACKs, which decoupled algorithms never read mid-run.
            if rtt is not None:
                self.rto.observe_run(rtt, k)
                state.latest_rtt = rtt
                state.srtt = self.rto.srtt
                if rtt < state.min_rtt:
                    state.min_rtt = rtt
                if rtt > state.max_rtt:
                    state.max_rtt = rtt
            cap_max = 0
            if k > 1:
                cap_max = self._grow_run(positions, 0, k - 1, ctx, rtt, now, eff_int)
            self._grow_run(positions, k - 1, k, ctx, rtt, now, None)
        if last == self._round_end:
            self._complete_round(rtt, now)
        state.clamp()

        final_cap = last + eff_int(state.cwnd)
        if final_cap > cap_max:
            cap_max = final_cap
        new_nxt = cap_max
        if new_nxt > total_packets:
            new_nxt = total_packets
        if new_nxt < snd_nxt0:
            new_nxt = snd_nxt0
        emitted = self._emit_range(snd_nxt0, new_nxt, now)
        self._snd_nxt = new_nxt
        self._snd_una = last
        self._dupack_count = 0
        self._prune_acked(u0, last)
        if self._snd_una >= self._round_end:
            self._round_end = self._snd_nxt
        if self._snd_una < self._snd_nxt or self._snd_nxt < total_packets:
            self._arm_timer(now)
        else:
            self._timer_deadline = None
        return emitted

    def _grow_run(self, positions: range, begin: int, end: int,
                  ctx: AckContext, rtt: float | None, now: float,
                  eff_int) -> int:
        """Window growth for the clean ACKs ``positions[begin:end]`` (decoupled).

        ``positions[i]`` is the unacknowledged point after the ``i``-th ACK
        of the run. The quirks follow :meth:`_grow_window`: in avoidance a
        frozen window neither grows nor counts towards the round, and a
        ceiling caps the window after every ACK's growth, so a ceiling
        server's ACKs reach the hooks one at a time (``count=1`` is exact by
        the split contract). Returns the largest per-ACK transmission cap
        observed (0 when ``eff_int`` is ``None``, i.e. the caller computes
        the cap itself after round completion).
        """
        state = self.state
        ceiling = self.config.approach_ceiling is not None
        freeze = self.config.freeze_in_avoidance
        cap_max = 0
        index = begin
        acked_to = positions[begin - 1] if begin else self._snd_una
        while index < end:
            remaining = 1 if ceiling else end - index
            cwnd_log = None
            frozen = freeze and not state.in_slow_start()
            if frozen:
                # Nothing changes from one frozen ACK to the next, so the
                # rest of the run is one step at a constant cap.
                consumed = remaining
            elif state.in_slow_start():
                if self._round_start_time is not None and state.acked_in_round == 0:
                    self.slow_start_policy.on_round_start(state, now)
                # Slow start grows monotonically, so the cap at the end of
                # the consumed stretch dominates the per-ACK caps within it.
                if self._alg_uses_policy_ss:
                    consumed = self._policy_ack_run(state, now, rtt, remaining)
                else:
                    consumed = self._slow_start_algorithm_loop(remaining, ctx)
            else:
                # A hook may consume fewer ACKs than offered when a backoff
                # drops the window below ssthresh (slow start re-entry).
                consumed, cwnd_log = self._avoidance_batch(state, ctx, remaining)
            if consumed <= 0:
                break
            start = index
            index += consumed
            position = positions[index - 1]
            if not frozen:
                # The scalar engine counts each ACK's full packet advance.
                state.acked_in_round += position - acked_to
            acked_to = position
            if ceiling:
                self._apply_quirk_caps()
                cwnd_log = None  # one ACK: its cap reads the capped window
            if eff_int is not None:
                if cwnd_log is None:
                    cap = position + eff_int(state.cwnd)
                    if cap > cap_max:
                        cap_max = cap
                else:
                    for offset, cwnd in enumerate(cwnd_log):
                        cap = positions[start + offset] + eff_int(cwnd)
                        if cap > cap_max:
                            cap_max = cap
        return cap_max

    def _slow_start_algorithm_loop(self, count: int, ctx: AckContext) -> int:
        """Per-ACK slow start for algorithms overriding ``on_ack_slow_start``."""
        state = self.state
        algorithm = self.algorithm
        consumed = 0
        while consumed < count and state.in_slow_start():
            before = state.cwnd
            algorithm.on_ack_slow_start(state, ctx)
            ssthresh = state.ssthresh
            if math.isfinite(ssthresh):
                upper = ssthresh if ssthresh >= before else before
                if state.cwnd > upper:
                    state.cwnd = upper
            consumed += 1
        return consumed

    def _run_interleaved(self, u0: int, k: int, ctx: AckContext, rtt: float,
                         now: float, eff_int) -> int:
        """Per-ACK registration + growth for non-decoupled algorithms.

        Keeps the scalar engine's exact interleaving (observe sample, update
        RTT state, grow) for algorithms whose growth hooks read the evolving
        ``srtt`` (Westwood+'s idle detector), while still batching everything
        around the growth; the freeze and ceiling quirks apply as in
        :meth:`_grow_window`. Returns the largest cap over the first ``k - 1``
        ACKs (the final ACK's cap is computed by the caller after round
        completion).
        """
        state = self.state
        algorithm = self.algorithm
        policy = self.slow_start_policy
        rto = self.rto
        observe = rto.observe
        uses_policy = self._alg_uses_policy_ss
        ceiling = self.config.approach_ceiling is not None
        freeze = self.config.freeze_in_avoidance
        cap_max = 0
        last = k - 1
        for i in range(k):
            observe(rtt)
            state.latest_rtt = rtt
            state.srtt = rto.srtt
            if rtt < state.min_rtt:
                state.min_rtt = rtt
            if rtt > state.max_rtt:
                state.max_rtt = rtt
            if state.in_slow_start():
                if (self._round_start_time is not None
                        and state.acked_in_round == 0):
                    policy.on_round_start(state, now)
                before = state.cwnd
                algorithm.on_ack_slow_start(state, ctx)
                if uses_policy:
                    state.cwnd = before
                    policy.on_ack(state, now, rtt)
                ssthresh = state.ssthresh
                if math.isfinite(ssthresh):
                    upper = ssthresh if ssthresh >= before else before
                    if state.cwnd > upper:
                        state.cwnd = upper
                state.acked_in_round += 1
            elif not freeze:
                algorithm.on_ack_avoidance(state, ctx)
                state.acked_in_round += 1
            if ceiling:
                self._apply_quirk_caps()
            if i < last:
                cap = (u0 + i + 1) + eff_int(state.cwnd)
                if cap > cap_max:
                    cap_max = cap
        return cap_max

    # ------------------------------------------------------------- emission
    def _emit_range(self, start: int, stop: int,
                    now: float) -> list[SegmentBlock]:
        """Emit the new-data packets ``[start, stop)`` sent at ``now``.

        One :class:`SegmentBlock` record and one send-time span, in O(1).
        """
        if stop <= start:
            return []
        mss = self.config.mss
        last_length = self._total_bytes - (stop - 1) * mss
        if last_length > mss or last_length <= 0:
            last_length = mss
        self._record_span(start, stop, now)
        self.block_records += 1
        return [SegmentBlock(start_index=start, stop_index=stop, mss=mss,
                             sent_at=now, last_length=last_length)]

    # --------------------------------------------- send-time span bookkeeping
    def _record_span(self, start: int, stop: int, now: float) -> None:
        """Record the send time of new-data packets ``[start, stop)``.

        New data is emitted at strictly increasing packet indices, so the
        range either extends the newest span (same burst time) or opens a
        new one; the span list stays ordered and disjoint.
        """
        spans = self._send_spans
        if spans:
            last = spans[-1]
            if last[1] == start and last[2] == now:
                last[1] = stop
                return
        spans.append([start, stop, now])

    def _record_single(self, packet_index: int, now: float) -> None:
        """Record the (re)send time of one packet, splitting its span.

        Retransmissions overwrite the send time of a packet that sits inside
        an existing span; the span is split around it so lookups keep exact
        per-packet times. Retransmissions are rare (one per timeout or fast
        retransmit), so the linear scan over the handful of live spans is
        cheap.
        """
        spans = self._send_spans
        for index, span in enumerate(spans):
            start, stop, sent_at = span
            if start <= packet_index < stop:
                if sent_at == now:
                    return
                pieces = []
                if start < packet_index:
                    pieces.append([start, packet_index, sent_at])
                pieces.append([packet_index, packet_index + 1, now])
                if packet_index + 1 < stop:
                    pieces.append([packet_index + 1, stop, sent_at])
                spans[index:index + 1] = pieces
                return
            if start > packet_index:
                spans.insert(index, [packet_index, packet_index + 1, now])
                return
        spans.append([packet_index, packet_index + 1, now])

    def _sent_time(self, packet_index: int) -> float | None:
        """Send time of ``packet_index``, or ``None`` when none is recorded."""
        for start, stop, sent_at in self._send_spans:
            if packet_index < start:
                return None
            if packet_index < stop:
                return sent_at
        return None

    def _sent_extent(self, packet_index: int) -> tuple[float | None, int]:
        """``(sent_at, stop)`` of the span covering ``packet_index``.

        ``stop`` is the first packet index past ``packet_index`` that does
        *not* share its send time; when the packet has no recorded time the
        extent is empty (``stop == packet_index + 1`` with a ``None`` time),
        which sends the caller to the scalar engine.
        """
        for start, stop, sent_at in self._send_spans:
            if packet_index < start:
                break
            if packet_index < stop:
                return sent_at, stop
        return None, packet_index + 1

    def _prune_acked(self, start: int, stop: int) -> None:
        """Drop send bookkeeping for packets now below ``snd_una``.

        RTT samples are only ever taken for the newest packet a cumulative
        ACK covers (always at or above the pre-ACK ``snd_una``), so entries
        below the advanced point can never be read again; pruning them keeps
        the bookkeeping bounded by the in-flight count instead of growing
        over the whole probe. Karn's rule is untouched: the retransmission
        marker is only consulted before the advance. A run that did not
        advance ``snd_una`` skips the pass entirely.
        """
        if stop <= start:
            return
        spans = self._send_spans
        while spans and spans[0][1] <= stop:
            spans.pop(0)
        if spans and spans[0][0] < stop:
            spans[0][0] = stop
        retransmitted = self._retransmitted
        if retransmitted:
            for index in [p for p in retransmitted if start <= p < stop]:
                retransmitted.discard(index)

    def _on_duplicate_ack(self, now: float) -> list:
        self._dupack_count += 1
        if self._frto_state:
            # A duplicate ACK after an RTO means the timeout was genuine
            # (RFC 5682); continue with conventional recovery.
            self._frto_state = 0
            self._frto_saved = None
        if self._dupack_count >= self.config.dupack_threshold and not self._in_recovery:
            return self._enter_fast_recovery(now)
        return []

    def _enter_fast_recovery(self, now: float) -> list:
        self._in_recovery = True
        self._recovery_point = self._snd_nxt
        self.algorithm.on_loss_event(self.state, now)
        self.state.clamp()
        blocks = [self._retransmit(self._snd_una, now)]
        self._arm_timer(now)
        return blocks

    def _on_new_ack(self, ack_packets: int, now: float) -> list:
        newly_acked = ack_packets - self._snd_una
        rtt_sample = self._rtt_sample_for(ack_packets - 1, now)
        self._register_rtt(rtt_sample, now)
        previous_una = self._snd_una
        self._snd_una = ack_packets
        self._dupack_count = 0
        self._prune_acked(previous_una, ack_packets)

        segments: list = []
        if self._in_recovery and self._snd_una >= self._recovery_point:
            self._in_recovery = False

        frto_segments, suppress_growth = self._handle_frto(now)
        segments.extend(frto_segments)

        if not suppress_growth:
            self._grow_window(newly_acked, rtt_sample, now)
        self._apply_quirk_caps()
        if self._round_end and self._snd_una >= self._round_end:
            self._complete_round(rtt_sample, now)
        self.state.clamp()

        segments.extend(self._transmit_new_data(now))
        if self.config.use_cwnd_moderation:
            self._moderate_cwnd()
        if self._snd_una >= self._round_end:
            self._round_end = self._snd_nxt
        if self._snd_una < self._snd_nxt or self._snd_nxt < self.total_packets:
            self._arm_timer(now)
        else:
            self._timer_deadline = None
        return segments

    def _handle_frto(self, now: float) -> tuple[list, bool]:
        """Advance the F-RTO state machine; returns (segments, suppress_growth)."""
        if not self._frto_state:
            return [], False
        if self._frto_state == 1:
            # First new ACK after the RTO: tentatively send new data rather
            # than continuing go-back-N, and wait for a second ACK.
            self._frto_state = 2
            return self._transmit_new_data(now, limit=2), True
        # Second new ACK: the timeout was spurious; undo the window collapse.
        self._frto_state = 0
        if self._frto_saved is not None:
            saved_cwnd, saved_ssthresh = self._frto_saved
            self.state.cwnd = saved_cwnd
            self.state.ssthresh = saved_ssthresh
            self._frto_saved = None
        self._spurious_timeouts += 1
        return [], True

    def _grow_window(self, newly_acked: int, rtt_sample: float | None, now: float) -> None:
        ctx = AckContext(now=now, rtt_sample=rtt_sample, newly_acked_packets=newly_acked)
        if self.config.freeze_in_avoidance and not self.state.in_slow_start():
            return
        if self.config.post_timeout_stall and self._had_timeout:
            self.state.cwnd = MIN_CWND
            return
        if self.state.in_slow_start():
            if self._round_start_time is not None and self.state.acked_in_round == 0:
                self.slow_start_policy.on_round_start(self.state, now)
            before = self.state.cwnd
            self.algorithm.on_ack_slow_start(self.state, ctx)
            if type(self.algorithm).on_ack_slow_start is CongestionAvoidance.on_ack_slow_start:
                # Default algorithms delegate to the configured slow start policy;
                # undo the base-class growth and apply the policy instead.
                self.state.cwnd = before
                self.slow_start_policy.on_ack(self.state, now, rtt_sample)
            # Never overshoot ssthresh by more than the acked amount.
            if math.isfinite(self.state.ssthresh):
                self.state.cwnd = min(self.state.cwnd,
                                      max(self.state.ssthresh, before))
        else:
            self.algorithm.on_ack_avoidance(self.state, ctx)
        self.state.acked_in_round += max(newly_acked, 1)

    def _apply_quirk_caps(self) -> None:
        ceiling = self.config.approach_ceiling
        if ceiling is not None and self.state.cwnd > ceiling:
            self.state.cwnd = ceiling

    def _complete_round(self, rtt_sample: float | None, now: float) -> None:
        """Close the current round (both engines), with the quirk suppressions."""
        self.state.last_round_rtt = rtt_sample or self.state.latest_rtt
        ctx = AckContext(now=now, rtt_sample=rtt_sample, newly_acked_packets=0,
                         round_completed=True)
        if not self.state.in_slow_start():
            self.state.avoidance_rounds += 1
        # Delay-based algorithms sample the path once per round even during
        # slow start (e.g. Westwood's bandwidth filter, Vegas' early exit).
        if not self.config.freeze_in_avoidance and not (
                self.config.post_timeout_stall and self._had_timeout):
            self.algorithm.on_round_complete(self.state, ctx)
        self.state.acked_in_round = 0
        self._round_start_time = now

    def _moderate_cwnd(self) -> None:
        in_flight = self._snd_nxt - self._snd_una
        ceiling = in_flight + self.config.moderation_burst
        if self.state.cwnd > ceiling:
            self.state.cwnd = float(ceiling)

    # ------------------------------------------------------------------ RTT
    def _rtt_sample_for(self, packet_index: int, now: float) -> float | None:
        """RTT sample for the newest packet covered by an ACK (Karn's rule).

        Samples from retransmitted packets are discarded, and so are samples
        from packets originally sent before the most recent retransmission
        timeout: their acknowledgments were delayed by the silent RTO period,
        so the measurement does not reflect the path RTT.
        """
        if packet_index in self._retransmitted:
            return None
        sent_at = self._sent_time(packet_index)
        if sent_at is None:
            return None
        if self._last_timeout_time is not None and sent_at < self._last_timeout_time:
            return None
        return max(now - sent_at, 1e-9)

    def _register_rtt(self, rtt_sample: float | None, now: float) -> None:
        if rtt_sample is None:
            return
        self.rto.observe(rtt_sample)
        state = self.state
        state.latest_rtt = rtt_sample
        state.srtt = self.rto.srtt
        state.min_rtt = min(state.min_rtt, rtt_sample)
        state.max_rtt = max(state.max_rtt, rtt_sample)

    # ------------------------------------------------------------------ send
    def effective_window(self) -> float:
        """Window actually usable for transmission, in packets.

        Returns:
            The congestion window clamped by the receive window, the send
            buffer, and the post-timeout-stall quirk.
        """
        window = self.state.cwnd
        rwnd_packets = self.config.receive_window_bytes / self.config.mss
        window = min(window, rwnd_packets)
        if self.config.send_buffer_packets is not None:
            window = min(window, self.config.send_buffer_packets)
        if self.config.post_timeout_stall and self._had_timeout:
            window = min(window, 1.0)
        return window

    def _transmit_new_data(self, now: float, limit: int | None = None) -> list:
        """Transmit everything the window allows, as one block.

        The window, the data bound and the optional budget are all constant
        while it runs, so the stopping index is computed directly and the
        stretch is emitted in a single :meth:`_emit_range` call.
        """
        start = self._snd_nxt
        stop = self._snd_una + int(self.effective_window())
        total = self.total_packets
        if stop > total:
            stop = total
        if limit is not None and stop > start + limit:
            stop = start + limit
        if stop <= start:
            return []
        emitted = self._emit_range(start, stop, now)
        self._snd_nxt = stop
        return emitted

    def _retransmit(self, packet_index: int, now: float) -> SegmentBlock:
        """Resend one packet as a single-packet retransmission block."""
        mss = self.config.mss
        length = min(mss, max(self._total_bytes - packet_index * mss, 0)) or mss
        self._retransmitted.add(packet_index)
        self._record_single(packet_index, now)
        self.block_records += 1
        return SegmentBlock(start_index=packet_index,
                            stop_index=packet_index + 1, mss=mss,
                            sent_at=now, last_length=length,
                            is_retransmission=True)

    # --------------------------------------------------------------- timeout
    def _arm_timer(self, now: float) -> None:
        self._timer_deadline = now + self.rto.current_rto()

    def on_timer(self, now: float) -> list[SegmentBlock]:
        """Fire the retransmission timer if it has expired.

        Args:
            now: Current simulation time.

        Returns:
            The retransmission block (empty if the timer has not expired or
            the server never retransmits).
        """
        if self._timer_deadline is None or now < self._timer_deadline:
            return []
        if not self.config.responds_to_timeout:
            # Quirk: the server never retransmits (invalid-trace cause).
            self._timer_deadline = None
            return []
        return self._retransmission_timeout(now)

    def _retransmission_timeout(self, now: float) -> list:
        cwnd_before = self.state.cwnd
        if self.config.use_frto:
            self._frto_saved = (self.state.cwnd, self.state.ssthresh)
            self._frto_state = 1
        self.algorithm.on_timeout(self.state, now)
        self.state.clamp()
        self.rto.back_off()
        self._had_timeout = True
        self._last_timeout_time = now
        self._in_recovery = False
        self._dupack_count = 0
        self._finished_timeouts.append(TimeoutEvent(
            at=now, cwnd_before=cwnd_before, ssthresh_after=self.state.ssthresh))
        # Go-back-N: retransmit the first unacknowledged packet.
        blocks = []
        if self._snd_una < self._snd_nxt:
            blocks.append(self._retransmit(self._snd_una, now))
        self._round_end = self._snd_nxt
        self._round_start_time = now
        self._arm_timer(now)
        return blocks

    # ------------------------------------------------------------- inspection
    def snapshot(self) -> dict[str, float]:
        """Small diagnostic snapshot used by examples and tests.

        Returns:
            The current cwnd, ssthresh, ACK point, send point and RTT
            estimates as a plain dict.
        """
        return {
            "cwnd": self.state.cwnd,
            "ssthresh": self.state.ssthresh,
            "snd_una": float(self._snd_una),
            "snd_nxt": float(self._snd_nxt),
            "min_rtt": self.state.min_rtt,
            "srtt": self.state.srtt if self.state.srtt is not None else float("nan"),
        }
