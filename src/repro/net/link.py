"""Netem-style link model.

The paper emulates Internet conditions between the CAAI computer and the
testbed Web servers with Linux netem (Section VII-A1): per-packet delay drawn
from a normal distribution, independent packet loss, and optional reordering
and duplication. :class:`NetemLink` reproduces that model on top of the
discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.net.simulator import EventSimulator


@dataclass
class LinkStats:
    """Counters describing what a link did to the traffic it carried."""

    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    #: ACKs dropped by a scenario-layer token-bucket policer.
    policer_dropped: int = 0
    #: ACKs removed by a scenario-layer thinning middlebox.
    thinned_acks: int = 0

    @property
    def offered(self) -> int:
        return (self.delivered + self.dropped + self.policer_dropped
                + self.thinned_acks)

    def loss_rate(self) -> float:
        """Random-loss rate over everything offered to the link.

        Scenario-layer drops (policer, thinning) count toward
        ``offered`` but not toward the numerator: they are deterministic
        degradations, not netem's random loss.
        """
        if self.offered == 0:
            return 0.0
        return self.dropped / self.offered


@dataclass
class NetemLink:
    """Unidirectional link with delay, jitter, loss, reordering and duplication.

    The one-way delay of each packet is ``max(min_delay, N(delay, jitter))``.
    Packets are normally delivered in order even when jitter would reorder
    them (netem's default queue behaviour is modelled by tracking the last
    scheduled delivery time); with probability ``reorder_probability`` a
    packet is allowed to jump ahead, and with probability
    ``duplicate_probability`` it is delivered twice.
    """

    simulator: EventSimulator
    delay: float
    jitter: float = 0.0
    loss_probability: float = 0.0
    reorder_probability: float = 0.0
    duplicate_probability: float = 0.0
    min_delay: float = 1e-4
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    stats: LinkStats = field(default_factory=LinkStats)
    _last_delivery: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        for name in ("loss_probability", "reorder_probability",
                     "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.delay < 0 or self.jitter < 0:
            raise ValueError("delay and jitter must be non-negative")

    def send(self, payload, deliver: Callable[[object], None]) -> None:
        """Send ``payload`` across the link, invoking ``deliver`` on arrival."""
        if self.rng.random() < self.loss_probability:
            self.stats.dropped += 1
            return
        self._schedule_delivery(payload, deliver)
        if self.rng.random() < self.duplicate_probability:
            self.stats.duplicated += 1
            self._schedule_delivery(payload, deliver)

    def send_expanded(self, block, deliver: Callable[[object], None]) -> None:
        """Send a :class:`~repro.tcp.packet.SegmentBlock` packet by packet.

        The netem model is strictly per-packet (each packet draws its own
        loss, delay and duplication), so the block a sender emits is
        expanded here into one :class:`~repro.tcp.packet.Segment` per
        covered packet, sent in sequence order.
        """
        for segment in block.segments():
            self.send(segment, deliver)

    def _schedule_delivery(self, payload, deliver: Callable[[object], None]) -> None:
        one_way = self._sample_delay()
        arrival = self.simulator.now + one_way
        if self.rng.random() >= self.reorder_probability:
            # Preserve FIFO ordering: never deliver before a previously sent packet.
            arrival = max(arrival, self._last_delivery)
        else:
            self.stats.reordered += 1
        self._last_delivery = max(self._last_delivery, arrival)
        self.stats.delivered += 1
        self.simulator.schedule_at(arrival, lambda: deliver(payload))

    def _sample_delay(self) -> float:
        if self.jitter > 0:
            sample = self.rng.normal(self.delay, self.jitter)
        else:
            sample = self.delay
        return max(self.min_delay, float(sample))
