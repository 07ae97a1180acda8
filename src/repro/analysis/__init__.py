"""Analysis and reporting helpers.

Empirical CDFs, fixed-width table rendering and ASCII charts used by the
command lines and the reproduction report to print each table and figure of
the paper.
"""

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table
from repro.analysis.figures import ascii_series

__all__ = [
    "EmpiricalCdf",
    "ascii_series",
    "format_table",
]
