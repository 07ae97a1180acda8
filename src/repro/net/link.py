"""Netem-style link model.

The paper emulates Internet conditions between the CAAI computer and the
testbed Web servers with Linux netem (Section VII-A1): per-packet delay drawn
from a normal distribution, independent packet loss, and optional reordering
and duplication. :class:`NetemLink` reproduces that model on top of the
discrete-event simulator.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.net.simulator import EventSimulator


def validate_windows(windows, name: str = "outages") -> tuple:
    """Validate ``(start, end)`` time windows and return them as a tuple.

    Used for :class:`NetemLink` outages and the scenario layer's cross-traffic
    burst schedules, which share the same shape: each window must be a pair of
    numbers with ``start < end``, and the windows must be sorted by start time
    and non-overlapping (a window may begin exactly where the previous one
    ends, since windows are start-inclusive/end-exclusive).

    Args:
        windows: Iterable of ``(start, end)`` pairs.
        name: Label used in error messages (e.g. ``"outages"``).

    Returns:
        The validated windows as a tuple of ``(float, float)`` pairs.

    Raises:
        ValueError: On a malformed pair, ``start >= end``, unsorted windows,
            or overlapping windows.
    """
    validated = []
    for index, window in enumerate(windows):
        try:
            start, end = window
            start, end = float(start), float(end)
        except (TypeError, ValueError):
            raise ValueError(
                f"{name}[{index}] must be a (start, end) pair of numbers, "
                f"got {window!r}") from None
        if not start < end:
            raise ValueError(
                f"{name}[{index}] must satisfy start < end, "
                f"got ({start}, {end})")
        if validated and start < validated[-1][1]:
            previous = validated[-1]
            raise ValueError(
                f"{name} must be sorted and non-overlapping: window {index} "
                f"({start}, {end}) starts before window {index - 1} "
                f"{previous} ends")
        validated.append((start, end))
    return tuple(validated)


@dataclass
class LinkStats:
    """Counters describing what a link did to the traffic it carried."""

    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    #: Packets swallowed by an injected outage window (fault injection).
    outage_dropped: int = 0
    #: ACKs dropped by a scenario-layer token-bucket policer.
    policer_dropped: int = 0
    #: ACKs removed by a scenario-layer thinning middlebox.
    thinned_acks: int = 0
    #: ACKs lost to a scenario-layer cross-traffic burst.
    cross_traffic_dropped: int = 0
    #: Data segments delivered with an ECN congestion-experienced mark.
    ecn_marked: int = 0

    @property
    def offered(self) -> int:
        return (self.delivered + self.dropped + self.outage_dropped
                + self.policer_dropped + self.thinned_acks
                + self.cross_traffic_dropped)

    def loss_rate(self) -> float:
        """Random-loss rate over everything offered to the link.

        Scenario-layer drops (policer, thinning, cross-traffic) count toward
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

    ``outages`` are transient total-loss windows used by the fault-injection
    layer (docs/ROBUSTNESS.md): a packet sent while ``simulator.now`` falls
    inside an ``(start, end)`` window is dropped outright, consuming no rng
    draws — an empty tuple (the default) leaves the link's behaviour and rng
    stream untouched.

    ``ecn_mark_probability`` makes the link ECN-capable: each surviving data
    segment is independently marked congestion-experienced with this
    probability (delivered as a copy with ``ecn_ce=True``) instead of being
    dropped. Like ``outages``, the default of 0.0 is draw-transparent — the
    marking branch consumes no rng draws and delivers the original objects,
    so every existing trace stays byte-identical.
    """

    simulator: EventSimulator
    delay: float
    jitter: float = 0.0
    loss_probability: float = 0.0
    reorder_probability: float = 0.0
    duplicate_probability: float = 0.0
    min_delay: float = 1e-4
    outages: tuple = ()
    ecn_mark_probability: float = 0.0
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    stats: LinkStats = field(default_factory=LinkStats)
    _last_delivery: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        for name in ("loss_probability", "reorder_probability",
                     "duplicate_probability", "ecn_mark_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.delay < 0 or self.jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        self.outages = validate_windows(self.outages, name="outages")

    def in_outage(self, now: float) -> bool:
        """Whether an injected outage window covers time ``now``.

        Args:
            now: Simulated time in seconds.

        Returns:
            ``True`` if some ``(start, end)`` window contains ``now``
            (start-inclusive, end-exclusive).
        """
        return any(start <= now < end for start, end in self.outages)

    def send(self, payload, deliver: Callable[[object], None]) -> None:
        """Send ``payload`` across the link, invoking ``deliver`` on arrival."""
        if self.outages and self.in_outage(self.simulator.now):
            self.stats.outage_dropped += 1
            return
        if self.rng.random() < self.loss_probability:
            self.stats.dropped += 1
            return
        if self.ecn_mark_probability:
            payload = self._maybe_mark(payload)
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

    def _maybe_mark(self, payload):
        """Mark a surviving data segment congestion-experienced, maybe.

        Only reached when ``ecn_mark_probability`` is non-zero, so the
        default configuration never draws here. Payloads without an
        ``ecn_ce`` field (ACKs, raw values) pass through untouched and
        without a draw, keeping mark draws strictly per data packet.
        """
        if getattr(payload, "ecn_ce", None) is not False:
            return payload
        if self.rng.random() >= self.ecn_mark_probability:
            return payload
        self.stats.ecn_marked += 1
        return dataclasses.replace(payload, ecn_ce=True)

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


@dataclass
class DuplexLink:
    """A pair of independent unidirectional links between two endpoints."""

    forward: NetemLink
    backward: NetemLink

    @classmethod
    def symmetric(cls, simulator: EventSimulator, one_way_delay: float,
                  jitter: float = 0.0, loss_probability: float = 0.0,
                  rng: np.random.Generator | None = None) -> "DuplexLink":
        rng = rng or np.random.default_rng(0)
        make = lambda seed: NetemLink(  # noqa: E731 - tiny local factory
            simulator=simulator, delay=one_way_delay, jitter=jitter,
            loss_probability=loss_probability,
            rng=np.random.default_rng(seed))
        seed = int(rng.integers(0, 2 ** 32 - 1))
        return cls(forward=make(seed), backward=make(seed + 1))
