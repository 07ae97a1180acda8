"""Table rendering for the command lines and the reproduction report.

The command lines print tables in the same row/column structure as the
paper, and the experiment renderer emits the same data as Markdown in
``docs/RESULTS.md``; these helpers keep both formats in one place.
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str | None = None) -> str:
    """Render a fixed-width text table.

    Args:
        headers: One string per column.
        rows: Row cells; floats are rendered with two decimals.
        title: Optional line printed above the table.

    Returns:
        The table as a multi-line string (no trailing newline).

    Raises:
        ValueError: If any row's length differs from the header count.
    """
    columns = len(headers)
    string_rows = _stringify_rows(headers, rows)
    widths = [len(str(header)) for header in headers]
    for row in string_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in string_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str],
                          rows: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-flavoured Markdown table.

    The Markdown twin of :func:`format_table`, used by the experiment
    renderer for ``docs/RESULTS.md``. Cell text is escaped so literal pipes
    cannot break the row structure.

    Args:
        headers: One string per column.
        rows: Row cells; floats are rendered with two decimals.

    Returns:
        The ``| a | b |`` style table as a multi-line string.

    Raises:
        ValueError: If any row's length differs from the header count.
    """
    string_rows = _stringify_rows(headers, rows)
    escaped_headers = [_escape_markdown(str(header)) for header in headers]
    lines = ["| " + " | ".join(escaped_headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in string_rows:
        lines.append("| " + " | ".join(_escape_markdown(cell) for cell in row) + " |")
    return "\n".join(lines)


def _stringify_rows(headers: Sequence[str],
                    rows: Sequence[Sequence[object]]) -> list[list[str]]:
    """Stringify cells and validate the row shape against the headers."""
    columns = len(headers)
    string_rows = [[_stringify(cell) for cell in row] for row in rows]
    for row in string_rows:
        if len(row) != columns:
            raise ValueError("all rows must have the same number of columns as headers")
    return string_rows


def _escape_markdown(cell: str) -> str:
    return cell.replace("|", "\\|")


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
