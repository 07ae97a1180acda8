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
:class:`~repro.tcp.packet.SegmentBlock` records the sender emits: window
estimation, loss draws and the ACK ladder all run on block arithmetic, so a
round costs O(blocks), not O(packets), and no per-packet
:class:`~repro.tcp.packet.Segment` object is ever built. The only stochastic
element of the path, ACK loss on the prober-to-server direction plus
data-packet loss on the reverse direction, is applied per packet with the
probe's :class:`~repro.net.conditions.NetworkCondition`. The packet-level
alternative (full discrete-event simulation including delay jitter) lives in
:mod:`repro.core.prober`; integration tests check the two agree on loss-free
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

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
from repro.tcp.packet import SegmentBlock, block_packet_count, in_sequence_blocks


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
        # The highest received sequence number is tracked both in bytes
        # (window estimates are byte-based, the stream tail may be shorter
        # than one MSS) and in packet-cumulative units (the sender's ACK
        # ladder works in packets; acknowledging packet ``i`` advances the
        # cumulative point to ``i + 1``, which is its block's ``stop_index``).
        trace = WindowTrace(environment=environment.name, w_timeout=config.w_timeout,
                            mss=config.mss,
                            required_post_rounds=config.rounds_after_timeout)
        now = start_time
        blocks = sender.start(now)
        highest_end = 0
        highest_pkt = 0
        highest_prev = 0

        # ---- pre-timeout phase: slow start up to the emulated timeout ------
        timed_out = False
        for round_index in range(config.max_pre_timeout_rounds):
            received = self._deliver(blocks, condition, rng)
            if not received:
                trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
                return trace
            for block in received:
                if block.end_seq > highest_end:
                    highest_end = block.end_seq
                if block.stop_index > highest_pkt:
                    highest_pkt = block.stop_index
            window = self._window_estimate(received, highest_end, highest_prev)
            highest_prev = highest_end
            trace.pre_timeout.append(window)
            now += environment.rtt_before_timeout(round_index)
            if self._past_deadline(now, start_time):
                trace.invalid_reason = InvalidReason.PROBE_TIMEOUT
                return trace
            if window > config.w_timeout:
                timed_out = True
                break
            self._ecn_feedback(sender, block_packet_count(received), condition,
                               rng, now)
            blocks, lost_acks = self._acknowledge(sender, received, condition,
                                                  rng, now, highest_pkt)
            trace.ack_loss_events += lost_acks
            if not blocks:
                trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
                return trace
        if not timed_out:
            trace.invalid_reason = InvalidReason.WINDOW_BELOW_W_TIMEOUT
            return trace

        # ---- the emulated timeout ------------------------------------------
        deadline = sender.next_timer_deadline()
        if deadline is None:
            trace.invalid_reason = InvalidReason.NO_TIMEOUT_RESPONSE
            return trace
        now = max(now, deadline)
        if self._past_deadline(now, start_time):
            trace.invalid_reason = InvalidReason.PROBE_TIMEOUT
            return trace
        blocks = sender.on_timer(now)
        if not blocks:
            trace.invalid_reason = InvalidReason.NO_TIMEOUT_RESPONSE
            return trace
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
            received = self._deliver(blocks, condition, rng)
            if not blocks:
                trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
                return trace
            if received:
                for block in received:
                    if block.end_seq > highest_end:
                        highest_end = block.end_seq
                    if block.stop_index > highest_pkt:
                        highest_pkt = block.stop_index
                window = self._window_estimate(received, highest_end,
                                               highest_prev)
                highest_prev = highest_end
            else:
                window = 0.0
            trace.post_timeout.append(window)
            now += environment.rtt_after_timeout(post_index)
            if self._past_deadline(now, start_time):
                trace.invalid_reason = InvalidReason.PROBE_TIMEOUT
                return trace
            self._ecn_feedback(sender, block_packet_count(received), condition,
                               rng, now)
            blocks, lost_acks = self._acknowledge(sender, received, condition,
                                                  rng, now, highest_pkt)
            trace.ack_loss_events += lost_acks
        return trace

    # ------------------------------------------------------------- internals
    def _past_deadline(self, now: float, start_time: float) -> bool:
        """Whether the per-environment deadline budget is exhausted."""
        deadline = self.config.deadline
        return deadline is not None and now - start_time > deadline

    def _ecn_feedback(self, sender: TcpSender, packet_count: int,
                      condition: NetworkCondition, rng: np.random.Generator,
                      now: float) -> None:
        """Mark the round's delivered packets and echo the count, maybe.

        One Bernoulli draw per delivered packet (vectorised, on the probe's
        own stream) when the condition's ``ecn_mark_rate`` is non-zero; the
        marked count rides back to the sender as one feedback call per round,
        just before the round's ACK ladder, so the batched and the scalar
        per-ACK engine see the same draws and calls. With the default rate of
        0.0 the method consumes no draws and makes no calls -- every historic
        trace is byte-identical.
        """
        if condition.ecn_mark_rate <= 0.0 or packet_count <= 0:
            return
        marked = int((rng.random(packet_count) < condition.ecn_mark_rate).sum())
        if marked:
            sender.ecn_feedback(marked, packet_count, now)

    def _deliver(self, blocks: list[SegmentBlock], condition: NetworkCondition,
                 rng: np.random.Generator) -> list[SegmentBlock]:
        """Apply data-direction loss; CAAI sees only the surviving packets.

        One draw per covered packet in block order (``Generator.random(n)``
        consumes the same stream as ``n`` scalar per-packet draws); each
        block is cut around its dropped packets, and a block that lost none
        passes through as the same object.
        """
        if condition.loss_rate <= 0.0 or not blocks:
            return list(blocks)
        dropped = np.flatnonzero(rng.random(block_packet_count(blocks))
                                 < condition.loss_rate).tolist()
        if not dropped:
            return list(blocks)
        return [block if stop - start == len(block) else block.slice(start, stop)
                for block, start, stop in cut_around(blocks, len, dropped)]

    def _window_estimate(self, received: list[SegmentBlock], highest_end: int,
                         highest_prev: int) -> float:
        """Estimate the round's window from the highest received sequence number.

        The retransmission round after the timeout repeats old sequence
        numbers, so the sequence-based estimate would be zero; CAAI falls back
        to counting packets there (the value is not used by feature
        extraction, which only looks at relative growth later in the trace).
        """
        by_sequence = (highest_end - highest_prev) / self.config.mss
        if by_sequence <= 0:
            return float(block_packet_count(received))
        return float(by_sequence)

    def _acknowledge(self, sender: TcpSender, received: list[SegmentBlock],
                     condition: NetworkCondition, rng: np.random.Generator,
                     now: float, highest_pkt: int) -> tuple[list[SegmentBlock], int]:
        """Send one cumulative ACK per received data packet, subject to ACK loss.

        The round's ladder (one cumulative ACK per received packet) is built
        from block arithmetic as ``(first, count, step)`` progressions in
        O(blocks) -- ``step == 1`` for in-order stretches, ``step == 0`` for
        repeated cumulative values -- and handed to the sender's
        :meth:`~repro.tcp.connection.TcpSender.on_ack_ladder`; ACK-direction
        loss draws stay one per entry on the probe's rng stream, and the
        runs are split at the lost entries.
        """
        if not received:
            return [], 0
        runs: list[tuple[int, int, int]] = []
        total = 0
        cumulative = 0
        for block in in_sequence_blocks(received):
            count = len(block)
            total += count
            if block.is_retransmission:
                # A retransmitted packet is acknowledged at the highest
                # sequence received so far (the emulated-timeout rule).
                value = cumulative if cumulative > highest_pkt else highest_pkt
                append_run(runs, value, count, 0)
                cumulative = value
                continue
            start, stop = block.start_index, block.stop_index
            if stop <= cumulative:
                append_run(runs, cumulative, count, 0)
            elif start >= cumulative:
                append_run(runs, start + 1, count, 1)
                cumulative = stop
            else:
                append_run(runs, cumulative, cumulative - start, 0)
                append_run(runs, cumulative + 1, stop - cumulative, 1)
                cumulative = stop
        lost = 0
        if condition.loss_rate > 0.0:
            # One draw per ACK, in ladder order.
            dropped = np.flatnonzero(rng.random(total) < condition.loss_rate).tolist()
            lost = len(dropped)
            if lost:
                runs = drop_entries(runs, dropped)
        return sender.on_ack_ladder(runs, now), lost


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
