"""ASCII figure rendering.

The experiment registry regenerates every figure of the paper as plain data
series; :func:`ascii_series` adds a compact ASCII rendering of one series
for quick inspection in the reproduction report.
"""

from __future__ import annotations


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
