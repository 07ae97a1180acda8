"""Analysis and reporting helpers.

Empirical CDFs, fixed-width table rendering and figure-series extraction used
by the command lines and the reproduction report to print each table and
figure of the paper.
"""

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.tables import format_table, format_percentage_table
from repro.analysis.figures import ascii_series, cdf_series, summarize_cdf

__all__ = [
    "EmpiricalCdf",
    "ascii_series",
    "cdf_series",
    "format_percentage_table",
    "format_table",
    "summarize_cdf",
]
