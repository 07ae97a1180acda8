"""Trace-driven network conditions (JSONL link traces).

The paper's emulation draws each path from a static condition database; real
paths — cellular links above all — vary over time. This module loads link
traces in a small JSONL schema (one object per line)::

    {"time": 0.0, "bandwidth_mbps": 6.0, "delay_ms": 70.0, "loss": 0.005}

``time`` is seconds from trace start and must be strictly increasing;
``bandwidth_mbps`` is the bottleneck rate, ``delay_ms`` the one-way
propagation delay, ``loss`` the random loss probability in ``[0, 1)``. A
trace is not replayed in time: :func:`trace_condition_database` resamples
its entries into a condition database, the ``cellular-trace`` pack's
preset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.net.conditions import ConditionDatabase

#: Directory of the link traces shipped with the scenario layer.
PACKAGED_TRACE_DIR = Path(__file__).resolve().parent / "traces"


@dataclass(frozen=True)
class TraceEntry:
    """One sample of a time-varying link."""

    time: float
    bandwidth_mbps: float
    delay_ms: float
    loss: float

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("trace entry time must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError("loss must lie in [0, 1)")


@dataclass(frozen=True)
class LinkTrace:
    """A link trace: samples ordered by strictly increasing time."""

    name: str
    entries: tuple[TraceEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"trace {self.name!r} must not be empty")
        times = [entry.time for entry in self.entries]
        for index in range(1, len(times)):
            if times[index] <= times[index - 1]:
                raise ValueError(
                    f"trace {self.name!r} timestamps must be strictly "
                    f"increasing: entry {index} has time {times[index]} after "
                    f"{times[index - 1]}")

    def __len__(self) -> int:
        return len(self.entries)


def parse_trace(lines, name: str) -> LinkTrace:
    """Build a :class:`LinkTrace` from JSONL lines.

    Args:
        lines: Iterable of JSONL lines (blank lines are skipped).
        name: Trace name recorded on the result and used in errors.

    Returns:
        The validated :class:`LinkTrace`.

    Raises:
        ValueError: On malformed JSON, missing keys, out-of-range values,
            an empty trace, or non-increasing timestamps.
    """
    entries = []
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"trace {name!r} line {line_number}: invalid JSON "
                f"({error})") from None
        try:
            entry = TraceEntry(
                time=float(record["time"]),
                bandwidth_mbps=float(record["bandwidth_mbps"]),
                delay_ms=float(record["delay_ms"]),
                loss=float(record["loss"]),
            )
        except KeyError as error:
            raise ValueError(
                f"trace {name!r} line {line_number}: missing key "
                f"{error.args[0]!r}") from None
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"trace {name!r} line {line_number}: {error}") from None
        entries.append(entry)
    return LinkTrace(name=name, entries=tuple(entries))


def load_trace(path: str | Path) -> LinkTrace:
    """Load one JSONL link trace from disk.

    Args:
        path: Path to the ``.jsonl`` file; the stem becomes the trace name.

    Returns:
        The validated :class:`LinkTrace`.
    """
    path = Path(path)
    return parse_trace(path.read_text().splitlines(), name=path.stem)


def packaged_trace(name: str) -> LinkTrace:
    """Load one of the traces shipped under ``scenarios/traces``.

    Args:
        name: Trace stem, e.g. ``"cellular"``.

    Returns:
        The loaded :class:`LinkTrace`.

    Raises:
        ValueError: If no such packaged trace exists; the message lists the
            available names.
    """
    path = PACKAGED_TRACE_DIR / f"{name}.jsonl"
    if not path.exists():
        available = ", ".join(sorted(
            p.stem for p in PACKAGED_TRACE_DIR.glob("*.jsonl")))
        raise ValueError(f"unknown packaged trace {name!r}; "
                         f"available: {available}")
    return load_trace(path)


def trace_condition_database(trace: LinkTrace, size: int,
                             seed: int) -> ConditionDatabase:
    """Resample a link trace into a condition database.

    Each emulated path is an independent draw of one trace sample: the RTT is
    twice the sampled one-way delay with mild multiplicative noise (different
    attach points see slightly different paths), the RTT jitter reflects the
    trace's own delay variability, and the loss rate is the sampled loss plus
    a small exponential tail. All values are clipped to the ranges the
    probing model supports.

    Args:
        trace: The link trace to resample.
        size: Number of emulated paths to draw.
        seed: Seed of the resampling draws.

    Returns:
        A :class:`~repro.net.conditions.ConditionDatabase` of ``size`` paths.
    """
    if size <= 0:
        raise ValueError("database size must be positive")
    rng = np.random.default_rng(seed)
    rtts = np.array([2.0 * entry.delay_ms / 1000.0 for entry in trace.entries])
    losses = np.array([entry.loss for entry in trace.entries])
    picks = rng.integers(0, len(trace), size=size)
    noise = rng.lognormal(mean=0.0, sigma=0.15, size=size)
    average_rtts = np.clip(rtts[picks] * noise, 0.005, 0.79)
    base_std = max(float(np.std(rtts)), 0.001)
    rtt_stds = np.clip(base_std * rng.lognormal(0.0, 0.5, size=size),
                       0.0002, 0.25)
    loss_rates = np.clip(
        losses[picks] + rng.exponential(scale=0.002, size=size), 0.0, 0.15)
    return ConditionDatabase(average_rtts=average_rtts, rtt_stds=rtt_stds,
                             loss_rates=loss_rates)


def cellular_condition_database(size: int, seed: int) -> ConditionDatabase:
    """The ``"cellular-trace"`` condition-database preset.

    Args:
        size: Number of emulated paths to draw.
        seed: Seed of the resampling draws.

    Returns:
        A condition database resampled from the packaged cellular trace.
    """
    return trace_condition_database(packaged_trace("cellular"), size, seed)
