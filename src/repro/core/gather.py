"""CAAI step 1: trace gathering (round-level engine).

This module drives a server's TCP sender through one emulated network
environment and records the per-RTT window estimates, exactly following
Section IV of the paper:

* every data packet is acknowledged (non-delayed ACKs), with the emulated RTT
  enforced by deferring the ACKs (subtask 1);
* the window of round ``i`` is estimated from the highest sequence number
  received in that round (subtask 2);
* once the window exceeds ``w_timeout`` the prober goes silent, waits for the
  server's retransmission timer, and then acknowledges everything received so
  far on every subsequent packet (the emulated timeout);
* for servers using F-RTO the prober first sends one duplicate ACK so the
  server falls back to a conventional timeout recovery;
* 18 post-timeout rounds make the trace valid (subtask 3).

The engine works at round granularity on the
:class:`~repro.tcp.packet.SegmentBlock` records the sender emits: loss draws
cut them into ``(start, stop, end_seq, retransmitted)`` stretch records, and
window estimation and the ACK ladder run on the stretch bounds, so a round
costs O(blocks), not O(packets), and neither a per-packet
:class:`~repro.tcp.packet.Segment` nor a sub-block is ever built. The only
stochastic element of the path, ACK loss on the prober-to-server direction
plus data-packet loss on the reverse direction, is applied per packet with
the probe's :class:`~repro.net.conditions.NetworkCondition`: one uniform per
packet on the probe's stream, in the order one draw per packet gives (each
round's data packets, then their ACKs). A trace takes those uniforms in
chunks (:class:`TraceDraws`), finds each chunk's drops once and gives each
round its drop positions by bisection; at the trace's end, and on a fault's
exception, it rewinds the generator to the last value used. The sender's
retransmission deadline is computed when it is read. The packet-level
alternative (full discrete-event simulation including delay jitter) lives in
:mod:`repro.core.prober`; on the ideal path the two give equal traces for
16 of the 19 registry families (``tests/core/test_prober.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Protocol, Sequence

import numpy as np

from repro.core.environments import (
    DEFAULT_ENVIRONMENTS,
    NetworkEnvironment,
    VALID_TRACE_ROUNDS_AFTER_TIMEOUT,
    W_TIMEOUT_LADDER,
)
from repro.core.trace import InvalidReason, ProbeTrace, WindowTrace
from repro.net.conditions import NetworkCondition
from repro.tcp.connection import TcpSender
from repro.tcp.options import CAAI_MSS_LADDER
from repro.tcp.packet import SegmentBlock, block_packet_count


class ProbeableServer(Protocol):
    """What the trace gatherer needs to know about a server.

    :class:`repro.web.server.WebServer` implements this protocol for the
    census; :class:`SyntheticServer` below is the light-weight implementation
    used when building training sets.
    """

    def accepts_mss(self, mss: int) -> bool:
        """Whether the server accepts a connection with the given MSS."""

    def uses_frto(self) -> bool:
        """Whether the server runs F-RTO (needs the duplicate-ACK workaround)."""

    def open_connection(self, mss: int, now: float, requested_bytes: int) -> TcpSender | None:
        """Open a connection and return a sender loaded with response data.

        ``requested_bytes`` is how much data CAAI would like to transfer
        (enough for the whole probe); the server may load less if its pages
        are short or it ignores pipelined requests. ``None`` means the
        connection could not be established.
        """


@dataclass
class SyntheticServer:
    """Minimal :class:`ProbeableServer` wrapping a sender factory.

    Used by the training-set builder (Section VII-A), where the "server" is a
    testbed machine with a known TCP algorithm and effectively unlimited data.
    """

    algorithm_name: str
    sender_config_factory: "callable"
    minimum_mss: int = 100
    available_bytes: int | None = None
    frto: bool = False
    cached_ssthresh: float | None = None

    def accepts_mss(self, mss: int) -> bool:
        return mss >= self.minimum_mss

    def uses_frto(self) -> bool:
        return self.frto

    def open_connection(self, mss: int, now: float, requested_bytes: int) -> TcpSender | None:
        if not self.accepts_mss(mss):
            return None
        from repro.tcp.registry import create_algorithm

        config = self.sender_config_factory(mss)
        if self.cached_ssthresh is not None:
            config.initial_ssthresh = self.cached_ssthresh
        sender = TcpSender(create_algorithm(self.algorithm_name), config)
        available = requested_bytes if self.available_bytes is None else min(
            requested_bytes, self.available_bytes)
        sender.enqueue_bytes(available)
        return sender


@dataclass
class GatherConfig:
    """Parameters of one trace-gathering run."""

    w_timeout: int = 512
    mss: int = 100
    rounds_after_timeout: int = VALID_TRACE_ROUNDS_AFTER_TIMEOUT
    #: Safety bound on the slow start phase; 512-packet windows need ~10 rounds.
    max_pre_timeout_rounds: int = 40
    #: Seconds CAAI waits between environments A and B for servers that cache
    #: the slow start threshold (Section IV-C recommends about 10 minutes).
    wait_between_environments: float = 600.0
    #: Per-environment deadline budget in simulated seconds, measured from
    #: the trace's own start time (``None`` = unbounded, the historic
    #: behaviour). A trace that exceeds it is marked
    #: :attr:`~repro.core.trace.InvalidReason.PROBE_TIMEOUT`.
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.w_timeout <= 0:
            raise ValueError("w_timeout must be positive")
        if self.mss <= 0:
            raise ValueError("MSS must be positive")
        if self.rounds_after_timeout <= 0:
            raise ValueError("rounds_after_timeout must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    def required_bytes(self) -> int:
        """Upper bound on the data a full probe can consume (Section IV-E).

        Before the timeout the window roughly doubles every round up to twice
        ``w_timeout``; after the timeout at most 18 rounds of at most twice
        ``w_timeout`` packets each can be transferred.
        """
        pre = 4 * self.w_timeout
        post = 2 * self.w_timeout * self.rounds_after_timeout
        return (pre + post) * self.mss


class TraceGatherer:
    """Gathers window traces of a server in CAAI's emulated environments."""

    def __init__(self, config: GatherConfig | None = None,
                 environments: tuple[NetworkEnvironment, ...] = DEFAULT_ENVIRONMENTS):
        self.config = config or GatherConfig()
        self.environments = environments

    # ------------------------------------------------------------------ API
    def gather_probe(self, server: ProbeableServer, condition: NetworkCondition,
                     rng: np.random.Generator, server_id: str | None = None) -> ProbeTrace:
        """Probe a server in both environments and return the pair of traces.

        Args:
            server: The server to probe (anything :class:`ProbeableServer`).
            condition: The emulated path (RTT, jitter, loss).
            rng: Random stream for the per-packet loss draws.
            server_id: Optional id recorded on the resulting trace.

        Returns:
            The :class:`ProbeTrace` pairing the environment A and B traces.
        """
        start_time = 0.0
        traces = []
        for environment in self.environments:
            trace = self.gather_trace(server, environment, condition, rng,
                                      start_time=start_time)
            traces.append(trace)
            # Leave time for slow start threshold caches to expire before the
            # next environment, as CAAI does (Section IV-C).
            start_time += self.config.wait_between_environments
        trace_a, trace_b = traces
        return ProbeTrace(trace_a=trace_a, trace_b=trace_b,
                          w_timeout=self.config.w_timeout, mss=self.config.mss,
                          server_id=server_id)

    def gather_trace(self, server: ProbeableServer, environment: NetworkEnvironment,
                     condition: NetworkCondition, rng: np.random.Generator,
                     start_time: float = 0.0) -> WindowTrace:
        """Gather one window trace in one environment.

        Args:
            server: The server to probe.
            environment: The emulated environment (RTT schedule).
            condition: The emulated path (RTT, jitter, loss).
            rng: Random stream for the per-packet loss draws.
            start_time: Connection open time (lets environment B start after
                the configured inter-environment wait).

        Returns:
            The per-round :class:`WindowTrace` (possibly marked invalid).
        """
        config = self.config
        if not server.accepts_mss(config.mss):
            return WindowTrace.invalid(environment.name, config.w_timeout,
                                       config.mss, InvalidReason.MSS_REJECTED)
        sender = server.open_connection(config.mss, start_time, config.required_bytes())
        if sender is None:
            return WindowTrace.invalid(environment.name, config.w_timeout,
                                       config.mss, InvalidReason.CONNECTION_FAILED)
        trace = WindowTrace(environment=environment.name, w_timeout=config.w_timeout,
                            mss=config.mss,
                            required_post_rounds=config.rounds_after_timeout)
        draws = TraceDraws(rng, condition.loss_rate)
        try:
            self._run_rounds(server, sender, environment, draws, trace,
                             start_time)
        finally:
            # On every exit, a fault raised by the sender included, the
            # stream ends where one draw per packet would have left it.
            draws.close()
        return trace

    # ------------------------------------------------------------- internals
    def _run_rounds(self, server: ProbeableServer, sender: TcpSender,
                    environment: NetworkEnvironment, draws: TraceDraws,
                    trace: WindowTrace, start_time: float) -> None:
        """Run the trace's rounds, filling ``trace`` (and its invalid reason).

        The highest received sequence number is tracked both in bytes
        (window estimates are byte-based, the stream tail may be shorter
        than one MSS) and in packet-cumulative units (the sender's ACK
        ladder works in packets; acknowledging packet ``i`` advances the
        cumulative point to ``i + 1``, which is its block's ``stop_index``).
        """
        config = self.config
        mss = config.mss
        w_timeout = config.w_timeout
        budget = config.deadline
        # The environment's RTT schedule: the short RTT before each phase's
        # switch round, the long one from it on.
        short_rtt, long_rtt = environment.short_rtt, environment.long_rtt
        pre_switch = environment.pre_timeout_switch_round
        post_switch = environment.post_timeout_switch_round
        now = start_time
        blocks = sender.start(now)
        highest_end = 0
        highest_pkt = 0
        highest_prev = 0

        # ---- pre-timeout phase: slow start up to the emulated timeout ------
        timed_out = False
        for round_index in range(config.max_pre_timeout_rounds):
            received = self._deliver(blocks, draws)
            if not received:
                trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
                return
            packets = 0
            for start, stop, end_seq, _ in received:
                packets += stop - start
                if end_seq > highest_end:
                    highest_end = end_seq
                if stop > highest_pkt:
                    highest_pkt = stop
            # The window estimate: how far the highest received byte moved,
            # in packets (a round of old sequence numbers counts packets).
            window = (highest_end - highest_prev) / mss
            if window <= 0:
                window = float(packets)
            highest_prev = highest_end
            trace.pre_timeout.append(window)
            now += short_rtt if round_index < pre_switch else long_rtt
            if budget is not None and now - start_time > budget:
                trace.invalid_reason = InvalidReason.PROBE_TIMEOUT
                return
            if window > w_timeout:
                timed_out = True
                break
            blocks, lost_acks = self._acknowledge(sender, received, draws, now,
                                                  highest_pkt)
            trace.ack_loss_events += lost_acks
            if not blocks:
                trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
                return
        if not timed_out:
            trace.invalid_reason = InvalidReason.WINDOW_BELOW_W_TIMEOUT
            return

        # ---- the emulated timeout ------------------------------------------
        deadline = sender.next_timer_deadline()
        if deadline is None:
            trace.invalid_reason = InvalidReason.NO_TIMEOUT_RESPONSE
            return
        now = max(now, deadline)
        if budget is not None and now - start_time > budget:
            trace.invalid_reason = InvalidReason.PROBE_TIMEOUT
            return
        blocks = sender.on_timer(now)
        if not blocks:
            trace.invalid_reason = InvalidReason.NO_TIMEOUT_RESPONSE
            return
        if server.uses_frto():
            # One duplicate ACK makes an F-RTO server fall back to the
            # conventional timeout recovery (Section IV-C).
            sender.on_ack_packet(highest_pkt, now, is_duplicate=True)

        # ---- post-timeout phase: 18 rounds of window estimates --------------
        for post_index in range(config.rounds_after_timeout):
            if not blocks:
                # The server went quiet. If it still has unacknowledged data
                # its retransmission timer will eventually fire (e.g. the ACKs
                # of a whole round were lost); otherwise it ran out of data
                # and the trace cannot reach 18 post-timeout rounds.
                deadline = sender.next_timer_deadline()
                if deadline is not None and not sender.all_data_acked():
                    now = max(now, deadline)
                    blocks = sender.on_timer(now)
            received = self._deliver(blocks, draws)
            if not blocks:
                trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
                return
            if received:
                packets = 0
                for start, stop, end_seq, _ in received:
                    packets += stop - start
                    if end_seq > highest_end:
                        highest_end = end_seq
                    if stop > highest_pkt:
                        highest_pkt = stop
                # The retransmission round after the timeout repeats old
                # sequence numbers, so CAAI counts its packets instead (the
                # value is not used by feature extraction, which only looks
                # at relative growth later in the trace).
                window = (highest_end - highest_prev) / mss
                if window <= 0:
                    window = float(packets)
                highest_prev = highest_end
            else:
                window = 0.0
            trace.post_timeout.append(window)
            now += short_rtt if post_index < post_switch else long_rtt
            if budget is not None and now - start_time > budget:
                trace.invalid_reason = InvalidReason.PROBE_TIMEOUT
                return
            blocks, lost_acks = self._acknowledge(sender, received, draws, now,
                                                  highest_pkt)
            trace.ack_loss_events += lost_acks

    def _deliver(self, blocks: list[SegmentBlock],
                 draws: TraceDraws) -> list[tuple[int, int, int, bool]]:
        """Apply data-direction loss; CAAI sees only the surviving packets.

        Returns the surviving stretches as ``(start, stop, end_seq,
        retransmitted)`` records in block order: packets ``[start, stop)``
        of one block, ``end_seq`` one past the stretch's last payload byte
        (the block's own end when the stretch keeps its last packet, else
        ``stop * mss``). One loss draw per covered packet in block order; a
        block is cut around its dropped packets, and no sub-block is built.
        """
        if draws.lossy and blocks:
            dropped = draws.drops(block_packet_count(blocks))
            if dropped:
                out = []
                for block, start, stop in cut_around(blocks, len, dropped):
                    first = block.start_index
                    last = first + stop
                    out.append((first + start, last,
                                block.end_seq if last == block.stop_index
                                else last * block.mss,
                                block.is_retransmission))
                return out
        return [(block.start_index, block.stop_index, block.end_seq,
                 block.is_retransmission) for block in blocks]

    def _acknowledge(self, sender: TcpSender,
                     received: list[tuple[int, int, int, bool]],
                     draws: TraceDraws, now: float,
                     highest_pkt: int) -> tuple[list[SegmentBlock], int]:
        """Send one cumulative ACK per received data packet, subject to ACK loss.

        ``received`` holds :meth:`_deliver`'s stretch records; they are
        acknowledged in sequence order, by a stable sort on ``start`` when a
        round's retransmission arrived after new data (one sender's blocks
        never interleave byte ranges, so neither do their stretches, and
        ordering the stretches orders their packets). The round's ladder
        (one cumulative ACK per received packet) is built from the stretch
        bounds as ``(first, count, step)`` progressions in O(stretches) --
        ``step == 1`` for in-order stretches, ``step == 0`` for repeated
        cumulative values -- and handed to the sender's
        :meth:`~repro.tcp.connection.TcpSender.on_ack_ladder`; ACK-direction
        loss draws stay one per entry on the probe's stream, and the runs
        are split at the lost entries.
        """
        if not received:
            return [], 0
        if len(received) > 1:
            starts = [record[0] for record in received]
            if starts != sorted(starts):
                received = sorted(received, key=itemgetter(0))
        runs: list[tuple[int, int, int]] = []
        total = 0
        cumulative = 0
        for start, stop, _, retransmitted in received:
            count = stop - start
            total += count
            if retransmitted:
                # A retransmitted packet is acknowledged at the highest
                # sequence received so far (the emulated-timeout rule).
                value = cumulative if cumulative > highest_pkt else highest_pkt
                append_run(runs, value, count, 0)
                cumulative = value
            elif stop <= cumulative:
                append_run(runs, cumulative, count, 0)
            elif start >= cumulative:
                append_run(runs, start + 1, count, 1)
                cumulative = stop
            else:
                append_run(runs, cumulative, cumulative - start, 0)
                append_run(runs, cumulative + 1, stop - cumulative, 1)
                cumulative = stop
        lost = 0
        if draws.lossy:
            # One draw per ACK, in ladder order.
            dropped = draws.drops(total)
            lost = len(dropped)
            if lost:
                runs = drop_entries(runs, dropped)
        return sender.on_ack_ladder(runs, now), lost


#: The first chunk of uniforms a trace draws, and the size each later chunk
#: doubles up to (8 bytes a value: 512 KiB at the cap).
FIRST_CHUNK = 1024
MAX_CHUNK = 1 << 16


class TraceDraws:
    """The probe stream's loss uniforms for one trace, drawn ahead in chunks.

    Loss takes one uniform per packet from the probe's generator, in the
    trace's order: each round's data packets, then their ACKs. Consecutive
    ``Generator.random`` calls of ``n`` and ``m`` values yield the values of
    one call of ``n + m``, so this source draws the stream in chunks that
    double from :data:`FIRST_CHUNK` up to :data:`MAX_CHUNK` values (larger
    when one request needs more) and serves the requests from them:
    :meth:`drops` returns where a request's values fall below the loss
    rate, found once per chunk and sliced by bisection. :meth:`close`
    rewinds the generator to the last value served. It restores the whole
    ``bit_generator.state`` saved before the newest chunk and redraws the
    part of that chunk that was served, which works for any bit generator
    and keeps the buffered 32-bit half that double draws never touch; the
    stream then ends exactly where one call per request would have left
    it.
    """

    __slots__ = ("_rng", "_loss_rate", "lossy", "_start", "_end", "_cursor",
                 "_drops", "_next_drop", "_chunk", "_saved")

    def __init__(self, rng: np.random.Generator, loss_rate: float):
        self._rng = rng
        self._loss_rate = loss_rate
        #: Whether the path loses packets (a loss request draws at all).
        self.lossy = loss_rate > 0.0
        #: The newest chunk covers stream positions ``[_start, _end)``.
        self._start = self._end = 0
        #: The stream position of the next value to serve.
        self._cursor = 0
        #: The stream positions of every drawn value below the loss rate,
        #: and the index of the first one at or past the cursor.
        self._drops: list[int] = []
        self._next_drop = 0
        self._chunk = FIRST_CHUNK
        #: ``bit_generator.state`` before the newest chunk was drawn.
        self._saved = None

    def drops(self, count: int) -> Sequence[int]:
        """Serve ``count`` loss draws.

        Args:
            count: Number of packets (one draw each).

        Returns:
            The sorted positions (0-based, within the request) of the
            packets whose draw fell below the loss rate; empty when none.
        """
        cursor = self._cursor
        stop = cursor + count
        if stop > self._end:
            self._draw(stop)
        self._cursor = stop
        drops = self._drops
        first = self._next_drop
        if first == len(drops) or drops[first] >= stop:
            return ()
        last = bisect_left(drops, stop, first + 1)
        self._next_drop = last
        return [position - cursor for position in drops[first:last]]

    def _draw(self, stop: int) -> None:
        """Draw the next chunk, large enough to reach stream position ``stop``."""
        rng = self._rng
        end = self._end
        size = max(self._chunk, stop - end)
        self._chunk = min(2 * self._chunk, MAX_CHUNK)
        self._saved = rng.bit_generator.state
        fresh = (rng.random(size) < self._loss_rate).nonzero()[0]
        if len(fresh):
            self._drops.extend((fresh + end).tolist())
        self._start = end
        self._end = end + size

    def close(self) -> None:
        """Rewind the generator to the last value served; the source is done.

        A second call does nothing.
        """
        saved = self._saved
        if saved is None:
            return
        self._saved = None
        if self._cursor < self._end:
            rng = self._rng
            rng.bit_generator.state = saved
            if self._cursor > self._start:
                rng.random(self._cursor - self._start)


# ---- ACK ladder runs: ``(first, count, step)`` holds the values ``first,
# first + step, ..., first + (count - 1) * step``. ACK loss here and the
# middlebox chain filter runs by arithmetic and never expand a ladder.
def append_run(runs: list[tuple[int, int, int]], first: int, count: int,
               step: int) -> None:
    """Append a run, joining it to the last one when both form one progression.

    A one-entry run has no step of its own: it continues any progression
    whose next value it is, two lone entries join as a run stepping by their
    difference, and one that joins nothing is stored with ``step == 1``, so
    the sender's fast path screens it like any single ACK rather than
    taking it as a repeat or a stride. Adjacent blocks produce adjacent
    ladder entries, so a round's burst reaches the sender as one run
    however many blocks it arrived as.
    """
    if count == 1:
        step = 1
    if runs:
        last_first, last_count, last_step = runs[-1]
        joined = (last_step if last_count > 1 else step if count > 1
                  else first - last_first)
        if (joined >= 0 and last_first + last_count * joined == first
                and (count == 1 or step == joined)):
            runs[-1] = (last_first, last_count + count, joined)
            return
    runs.append((first, count, step))


def cut_around(items, size, dropped):
    """``(item, start, stop)`` for each stretch of ``items`` left by ``dropped``.

    ``items`` cover consecutive entries, ``size(item)`` each, and ``dropped``
    holds sorted positions over all of them; ``[start, stop)`` is relative
    to the item. O(items + drops).
    """
    cursor = offset = 0
    for item in items:
        length = size(item)
        end = offset + length
        start = 0
        while cursor < len(dropped) and dropped[cursor] < end:
            position = dropped[cursor] - offset
            if position > start:
                yield item, start, position
            start = position + 1
            cursor += 1
        if start < length:
            yield item, start, length
        offset = end


def drop_entries(runs: list[tuple[int, int, int]],
                 dropped) -> list[tuple[int, int, int]]:
    """The ladder without the entries at the sorted positions ``dropped``."""
    out: list[tuple[int, int, int]] = []
    for (first, _, step), start, stop in cut_around(runs, lambda run: run[1],
                                                         dropped):
        append_run(out, first + start * step, stop - start, step)
    return out


def every_nth_entry(runs: list[tuple[int, int, int]],
                    every: int) -> list[tuple[int, int, int]]:
    """Entries ``every - 1, 2 * every - 1, ...`` of the ladder.

    Each input run yields at most one run, with ``every`` times its step: a
    thinned per-packet stretch becomes one stretch-ACK run, ``step == every``.
    """
    out: list[tuple[int, int, int]] = []
    offset = 0
    for first, count, step in runs:
        skip = (-offset - 1) % every
        if skip < count:
            append_run(out, first + skip * step, (count - skip - 1) // every + 1,
                       step * every)
        offset += count
    return out


def first_entries(runs: list[tuple[int, int, int]],
                  count: int) -> list[tuple[int, int, int]]:
    """The first ``count`` entries of the ladder."""
    out: list[tuple[int, int, int]] = []
    for first, size, step in runs:
        if count <= 0:
            break
        append_run(out, first, min(size, count), step)
        count -= size
    return out


def probe_with_w_timeout_ladder(server: ProbeableServer, condition: NetworkCondition,
                                rng: np.random.Generator, mss: int,
                                ladder: tuple[int, ...] = W_TIMEOUT_LADDER,
                                server_id: str | None = None,
                                wait_between_environments: float = 600.0,
                                deadline: float | None = None) -> ProbeTrace:
    """Probe a server, lowering ``w_timeout`` until a valid trace is obtained.

    CAAI tries ``w_timeout`` of 512, 256, 128 and finally 64 packets
    (Section IV-B); the first value that yields valid traces in both
    environments wins. The last attempt is returned even if invalid so that
    the census can categorise the failure.

    Args:
        server: The server to probe.
        condition: The emulated path (RTT, jitter, loss).
        rng: Random stream for the per-packet loss draws.
        mss: Negotiated maximum segment size.
        ladder: ``w_timeout`` values to try, in order.
        server_id: Optional id recorded on the resulting traces.
        wait_between_environments: Seconds between the A and B probes.
        deadline: Per-environment budget in simulated seconds (``None`` =
            unbounded); see :attr:`GatherConfig.deadline`.

    Returns:
        The first usable :class:`ProbeTrace`, or the last (invalid) one.
    """
    last_probe: ProbeTrace | None = None
    for w_timeout in ladder:
        gatherer = TraceGatherer(GatherConfig(
            w_timeout=w_timeout, mss=mss,
            wait_between_environments=wait_between_environments,
            deadline=deadline))
        probe = gatherer.gather_probe(server, condition, rng, server_id=server_id)
        last_probe = probe
        if probe.usable_for_features:
            return probe
    assert last_probe is not None
    return last_probe


def negotiate_probe_mss(server: ProbeableServer,
                        ladder: tuple[int, ...] = CAAI_MSS_LADDER) -> int | None:
    """Find the smallest MSS in CAAI's ladder that the server accepts."""
    for mss in ladder:
        if server.accepts_mss(mss):
            return mss
    return None
