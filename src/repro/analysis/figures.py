"""Figure-series helpers.

The experiment registry regenerates every figure of the paper as plain data
series (plus a compact ASCII rendering for quick inspection in the
reproduction report); this module holds the shared plumbing.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import EmpiricalCdf


def cdf_series(samples, points=None) -> list[tuple[float, float]]:
    """Return (value, cumulative fraction) pairs for a sample.

    If ``points`` is given the CDF is evaluated at those values, which gives
    a compact fixed grid for each CDF figure.

    Args:
        samples: Any non-empty iterable of numbers.
        points: Optional evaluation grid; defaults to an evenly thinned
            subset of the sample values.

    Returns:
        ``(value, cumulative fraction)`` pairs.
    """
    cdf = EmpiricalCdf.from_samples(samples)
    if points is None:
        step = max(1, len(cdf.values) // 50)
        return [(float(v), float(f)) for v, f in
                zip(cdf.values[::step], cdf.fractions[::step])]
    points = np.asarray(points, dtype=float)
    return [(float(p), float(f)) for p, f in zip(points, cdf.evaluated_at(points))]


def summarize_cdf(samples, quantiles=(0.10, 0.25, 0.50, 0.75, 0.90, 0.99)) -> dict[float, float]:
    """Return selected quantiles of a sample.

    Args:
        samples: Any non-empty iterable of numbers.
        quantiles: The quantile levels to evaluate.

    Returns:
        A ``{level: value}`` dict in ``quantiles`` order.
    """
    cdf = EmpiricalCdf.from_samples(samples)
    return {float(q): cdf.quantile(q) for q in quantiles}


def ascii_series(values, width: int = 60, height: int = 12,
                 label: str = "") -> str:
    """Render a numeric series as a small ASCII chart.

    Used by the reproduction report to give a
    visual impression of the window traces of Fig. 3 without any plotting
    dependency.

    Args:
        values: The series to plot.
        width: Maximum number of columns (one per series element).
        height: Number of character rows.
        label: Optional label printed above the chart.

    Returns:
        The chart as a multi-line string (``"(empty series)"`` for an
        empty input).
    """
    values = [float(v) for v in values]
    if not values:
        return "(empty series)"
    maximum = max(values) or 1.0
    columns = values[:width]
    lines = []
    for level in range(height, 0, -1):
        threshold = maximum * level / height
        line = "".join("#" if value >= threshold else " " for value in columns)
        lines.append(line)
    axis = "-" * len(columns)
    header = f"{label} (max={maximum:.0f}, rounds={len(values)})" if label else ""
    parts = [part for part in (header, *lines, axis) if part != ""]
    return "\n".join(parts)
