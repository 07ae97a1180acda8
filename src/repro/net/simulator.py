"""Discrete-event simulator core.

The packet-level CAAI prober (:mod:`repro.core.prober`) and the example
scenarios run on this simulator: a single-threaded event heap with absolute
timestamps, deterministic tie-breaking, and support for cancellable timers.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True, slots=True)
class _ScheduledEvent:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by :meth:`EventSimulator.schedule` for cancellation."""

    __slots__ = ("_event", "_simulator")

    def __init__(self, event: _ScheduledEvent, simulator: "EventSimulator"):
        self._event = event
        self._simulator = simulator

    def cancel(self) -> None:
        self._simulator._cancel(self._event)

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


class EventSimulator:
    """A minimal but complete discrete-event scheduler."""

    def __init__(self) -> None:
        self._queue: list[_ScheduledEvent] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule an event in the past")
        event = _ScheduledEvent(time=self._now + delay, sequence=next(self._counter),
                                callback=callback)
        heapq.heappush(self._queue, event)
        return EventHandle(event, self)

    def schedule_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at the absolute time ``when``."""
        return self.schedule(max(0.0, when - self._now), callback)

    def _cancel(self, event: _ScheduledEvent) -> None:
        event.cancelled = True
        self._drop_cancelled_top()

    def _drop_cancelled_top(self) -> None:
        """Drop cancelled events as soon as they surface at the heap top."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)

    def run(self, until: float = math.inf, max_events: int | None = None) -> int:
        """Run events in timestamp order.

        Stops when the queue drains, the next event lies beyond ``until``, or
        ``max_events`` events have been processed. Returns the number of
        events processed by this call.
        """
        processed_before = self._processed
        budget = max_events if max_events is not None else math.inf
        while self._queue and (self._processed - processed_before) < budget:
            self._drop_cancelled_top()
            if not self._queue:
                break
            event = self._queue[0]
            if event.time > until:
                break
            heapq.heappop(self._queue)
            self._now = max(self._now, event.time)
            event.callback()
            self._processed += 1
        if not self._queue and not math.isinf(until) and until > self._now:
            self._now = until
        return self._processed - processed_before

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain; guards against runaway simulations."""
        processed = self.run(max_events=max_events)
        if self._queue and processed >= max_events:
            raise RuntimeError(
                f"simulation did not converge within {max_events} events")
        return processed
