"""Machine-speed calibration of the benchmark's timings.

On a shared machine the same work can take 40 % longer from one minute to
the next: neighbours slow the core down without the process losing CPU time,
so CPU time drifts exactly like wall time, and the two cores of the machine
the benchmark was written on are often a quarter apart in speed. Timing a
reference loop before and after a pass misses slowdowns that come and go
within it, so :meth:`Calibrator.call` samples the machine *during* the call:
an interval timer interrupts the calling thread every :data:`INTERVAL_S`
and times a fixed snippet (interpreter work over a few thousand objects and
a dict) on the same core at the same moment. The call's timings are
rescaled by ``REFERENCE_S / median snippet time``: the benchmark reports
seconds of a machine on which the snippet takes ``REFERENCE_S``.

The snippet does not touch ``repro``, so a change to the program cannot
move it; it costs under 1 % of a pass and cannot change outputs (every pass
is digest-checked).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds the snippet takes on an idle core of the reference machine
#: (Intel Xeon at 2.0 GHz, Python 3.11).
REFERENCE_S = 0.0003
#: Seconds between two samples during a call.
INTERVAL_S = 0.05
#: Fewest samples a call is calibrated from; a shorter call is topped up
#: with samples right after it.
MIN_SAMPLES = 5
_OBJECTS = 2000


class Calibrator:
    """Samples the snippet's speed during calls (:meth:`call`)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        objects = [(i, float(i)) for i in range(_OBJECTS)]
        # A fixed random order defeats the prefetcher, as the program's
        # object graph does.
        self._objects = [objects[int(j)] for j in rng.permutation(_OBJECTS)]
        self._table = {i: float(i) for i in range(_OBJECTS)}
        self._samples: list[float] = []

    def _snippet(self) -> float:
        total = 0.0
        table = self._table
        for number, value in self._objects:
            total += number * 0.5 + value + table[number]
        return total

    def _sample(self, signum=None, frame=None) -> None:
        # The first run pulls the snippet's objects back into the cache the
        # interrupted call filled with its own; timing only the second keeps
        # the program's memory footprint out of the calibration.
        self._snippet()
        began = time.perf_counter()
        self._snippet()
        self._samples.append(time.perf_counter() - began)

    def call(self, function, *args):
        """Call ``function(*args)``; return ``(result, factor)``.

        ``factor`` converts the seconds measured during the call into
        reference seconds: multiply times by it, divide rates by it.
        """
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = function(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        while len(self._samples) < MIN_SAMPLES:
            self._sample()
        return result, REFERENCE_S / statistics.median(self._samples)
