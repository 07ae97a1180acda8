"""Packet-level CAAI prober on the discrete-event simulator.

:mod:`repro.core.gather` drives a server round by round, which is fast and is
what training and the census use. This module is the faithful packet-level
version of the same probe (Fig. 5 of the paper): the prober and the server
exchange individual packets over netem-style links with real one-way delays,
and the prober emulates the network environment purely by *deferring* its
ACKs -- exactly the mechanism the real CAAI uses -- rather than by assuming
round boundaries.

It exists for three reasons: integration tests check that it agrees with the
round-level engine on clean paths, the examples use it to show the probe
mechanics end to end, and it exercises the simulator substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.environments import (
    NetworkEnvironment,
    VALID_TRACE_ROUNDS_AFTER_TIMEOUT,
)
from repro.core.trace import InvalidReason, WindowTrace
from repro.net.conditions import NetworkCondition
from repro.net.link import NetemLink
from repro.net.simulator import EventSimulator
from repro.tcp.connection import TcpSender
from repro.tcp.packet import Segment, SegmentBlock, in_sequence


@dataclass
class ProberConfig:
    """Parameters of a packet-level probe."""

    w_timeout: int = 512
    mss: int = 100
    rounds_after_timeout: int = VALID_TRACE_ROUNDS_AFTER_TIMEOUT
    max_pre_timeout_rounds: int = 40
    #: Extra slack the prober leaves for the reverse path when scheduling its
    #: deferred ACKs (fraction of the measured path RTT).
    reverse_path_allowance: float = 0.5


class _ServerEndpoint:
    """Server side of the packet-level probe: a sender plus its RTO timer."""

    def __init__(self, simulator: EventSimulator, sender: TcpSender,
                 downlink: NetemLink, prober: "CaaiProber"):
        self.simulator = simulator
        self.sender = sender
        self.downlink = downlink
        self.prober = prober
        self._timer_handle = None
        self._shut_down = False

    def start(self) -> None:
        self._transmit(self.sender.start(self.simulator.now))
        self._rearm_timer()

    def shutdown(self) -> None:
        """Stop transmitting and cancel the RTO timer (the probe has ended)."""
        self._shut_down = True
        if self._timer_handle is not None:
            self._timer_handle.cancel()
            self._timer_handle = None

    def on_ack(self, ack_seq: int, is_duplicate: bool = False) -> None:
        if self._shut_down:
            return
        self._transmit(self.sender.on_ack(ack_seq, self.simulator.now,
                                          is_duplicate=is_duplicate))
        self._rearm_timer()

    def _on_timer(self) -> None:
        if self._shut_down:
            return
        self._transmit(self.sender.on_timer(self.simulator.now))
        self._rearm_timer()

    def _transmit(self, blocks: list[SegmentBlock]) -> None:
        # The link expands each block into per-packet deliveries, so the
        # prober's receive side always sees individual Segments.
        for block in blocks:
            self.downlink.send_expanded(block, self.prober.on_segment)

    def _rearm_timer(self) -> None:
        if self._timer_handle is not None:
            self._timer_handle.cancel()
            self._timer_handle = None
        deadline = self.sender.next_timer_deadline()
        if deadline is not None:
            self._timer_handle = self.simulator.schedule_at(deadline, self._on_timer)


class CaaiProber:
    """The CAAI client on the packet-level simulator."""

    def __init__(self, environment: NetworkEnvironment,
                 condition: NetworkCondition,
                 config: ProberConfig | None = None,
                 seed: int = 0):
        self.environment = environment
        self.condition = condition
        self.config = config or ProberConfig()
        self.simulator = EventSimulator()
        rng = np.random.default_rng(seed)
        jitter = condition.rtt_std / 2.0
        one_way = condition.average_rtt / 2.0
        self.uplink = NetemLink(simulator=self.simulator, delay=one_way, jitter=jitter,
                                loss_probability=condition.loss_rate,
                                rng=np.random.default_rng(int(rng.integers(1, 2 ** 32))))
        self.downlink = NetemLink(simulator=self.simulator, delay=one_way, jitter=jitter,
                                  loss_probability=condition.loss_rate,
                                  rng=np.random.default_rng(int(rng.integers(1, 2 ** 32))))
        self._endpoint: _ServerEndpoint | None = None
        self._received_this_round: list[Segment] = []
        self._highest_end = 0
        self._highest_prev = 0
        self._highest_acked = 0
        self._round_index = 0
        self._post_round_index = 0
        self._after_timeout = False
        self._trace: WindowTrace | None = None
        self._finished = False

    # ------------------------------------------------------------------ API
    def probe(self, sender: TcpSender, frto_server: bool = False,
              max_events: int = 2_000_000) -> WindowTrace:
        """Run one probe against ``sender`` and return the window trace."""
        config = self.config
        self._trace = WindowTrace(environment=self.environment.name,
                                  w_timeout=config.w_timeout, mss=config.mss,
                                  required_post_rounds=config.rounds_after_timeout)
        self._frto_server = frto_server
        self._endpoint = _ServerEndpoint(self.simulator, sender, self.downlink, self)
        self._endpoint.start()
        # The first ACK-release round fires one emulated RTT after the start.
        self._schedule_release(self.environment.rtt_before_timeout(0))
        self.simulator.run(max_events=max_events)
        if not self._finished and self._trace.invalid_reason is None:
            self._trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
        self._finish()
        return self._trace

    # -------------------------------------------------------------- receive
    def on_segment(self, segment: Segment) -> None:
        """Handle a data packet arriving from the server."""
        if self._finished:
            return
        self._received_this_round.append(segment)

    # --------------------------------------------------------------- rounds
    def _schedule_release(self, delay: float) -> None:
        self.simulator.schedule(delay, self._release_acks)

    def _release_acks(self) -> None:
        """End the current emulated round: measure the window, send the ACKs."""
        if self._finished or self._trace is None or self._endpoint is None:
            return
        received = self._received_this_round
        self._received_this_round = []
        if received:
            self._highest_end = max(self._highest_end,
                                    max(seg.end_seq for seg in received))
        window = self._measure_window(received)

        if not self._after_timeout:
            self._pre_timeout_round(received, window)
        else:
            self._post_timeout_round(received, window)

    def _finish(self) -> None:
        """End the probe: stop the server endpoint so the simulation drains."""
        self._finished = True
        if self._endpoint is not None:
            self._endpoint.shutdown()

    def _measure_window(self, received: list[Segment]) -> float:
        by_sequence = (self._highest_end - self._highest_prev) / self.config.mss
        self._highest_prev = self._highest_end
        if by_sequence <= 0:
            return float(len(received))
        return float(by_sequence)

    def _pre_timeout_round(self, received: list[Segment], window: float) -> None:
        assert self._trace is not None and self._endpoint is not None
        if not received and self._trace.pre_timeout:
            self._trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
            self._finish()
            return
        self._trace.pre_timeout.append(window)
        self._round_index += 1
        if window > self.config.w_timeout:
            # Emulated timeout: go silent and wait for the retransmission.
            self._after_timeout = True
            self._await_retransmission()
            return
        if self._round_index >= self.config.max_pre_timeout_rounds:
            self._trace.invalid_reason = InvalidReason.WINDOW_BELOW_W_TIMEOUT
            self._finish()
            return
        self._acknowledge(received)
        self._schedule_release(self.environment.rtt_before_timeout(self._round_index))

    def _await_retransmission(self) -> None:
        """Poll for the server's retransmission after the emulated timeout."""
        if self._finished or self._trace is None:
            return
        if any(seg.is_retransmission for seg in self._received_this_round):
            # The retransmission arrived; start the post-timeout rounds.
            # (Stragglers from the last pre-timeout burst do not count -- the
            # server has not timed out until it retransmits.)
            if self._frto_server and self._endpoint is not None:
                self._endpoint.on_ack(self._highest_end, is_duplicate=True)
            self._schedule_release(self.environment.rtt_after_timeout(0))
            return
        if self.simulator.now > 240.0:
            self._trace.invalid_reason = InvalidReason.NO_TIMEOUT_RESPONSE
            self._finish()
            return
        self.simulator.schedule(0.05, self._await_retransmission)

    def _post_timeout_round(self, received: list[Segment], window: float) -> None:
        assert self._trace is not None
        if not received and self._post_round_index > 0:
            # The server went quiet (out of data): the trace cannot reach the
            # required 18 post-timeout rounds.
            self._trace.invalid_reason = InvalidReason.INSUFFICIENT_DATA
            self._finish()
            return
        self._trace.post_timeout.append(window)
        self._post_round_index += 1
        self._acknowledge(received, cumulative=True)
        if self._post_round_index >= self.config.rounds_after_timeout:
            self._finish()
            return
        self._schedule_release(
            self.environment.rtt_after_timeout(self._post_round_index))

    def _acknowledge(self, received: list[Segment], cumulative: bool = False) -> None:
        """Send one ACK per received packet through the uplink.

        Before the timeout each packet is acknowledged individually; after the
        timeout every ACK covers everything received so far (Section IV-C).
        ACKs that would not advance the cumulative point are suppressed so the
        server does not mistake them for duplicate-ACK loss signals.
        """
        assert self._endpoint is not None
        endpoint = self._endpoint
        for segment in in_sequence(received):
            if cumulative:
                ack_value = max(self._highest_acked, segment.end_seq, self._highest_end
                                if segment.is_retransmission else 0)
                if ack_value <= self._highest_acked:
                    continue
            else:
                ack_value = segment.end_seq
                if ack_value <= self._highest_acked:
                    continue
            self._highest_acked = max(self._highest_acked, ack_value)
            self.uplink.send(ack_value, lambda value=ack_value: endpoint.on_ack(value))


def packet_level_trace(algorithm_name: str, environment: NetworkEnvironment,
                       condition: NetworkCondition | None = None,
                       w_timeout: int = 512, mss: int = 100,
                       initial_window: int = 3, seed: int = 0,
                       data_bytes: int | None = None) -> WindowTrace:
    """Convenience wrapper: probe a fresh sender at packet level."""
    from repro.tcp.connection import SenderConfig
    from repro.tcp.registry import create_algorithm

    condition = condition or NetworkCondition.ideal()
    config = ProberConfig(w_timeout=w_timeout, mss=mss)
    prober = CaaiProber(environment, condition, config, seed=seed)
    sender = TcpSender(create_algorithm(algorithm_name),
                       SenderConfig(mss=mss, initial_window=initial_window))
    sender.enqueue_bytes(data_bytes if data_bytes is not None
                         else (4 * w_timeout + 2 * w_timeout * 18) * mss)
    return prober.probe(sender)
