"""Tests for the analysis helpers (CDFs, tables, ASCII charts)."""

import numpy as np
import pytest

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.figures import ascii_series
from repro.analysis.tables import format_markdown_table, format_table


class TestEmpiricalCdf:
    def test_basic_properties(self):
        cdf = EmpiricalCdf.from_samples([3, 1, 2, 4])
        assert cdf.fraction_below(2.5) == pytest.approx(0.5)
        assert cdf.fraction_below(10) == 1.0
        assert cdf.median() == pytest.approx(2.5)
        assert len(cdf) == 4
        assert list(cdf.evaluated_at([0, 2, 5])) == [0.0, 0.5, 1.0]

    def test_monotone(self):
        rng = np.random.default_rng(0)
        cdf = EmpiricalCdf.from_samples(rng.exponential(size=200))
        assert np.all(np.diff(cdf.fractions) >= 0)
        assert np.all(np.diff(cdf.values) >= 0)

    def test_quantile_bounds(self):
        cdf = EmpiricalCdf.from_samples([1, 2, 3])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCdf.from_samples([])


class TestFigureHelpers:
    def test_ascii_series_renders(self):
        art = ascii_series([1, 2, 4, 8, 16], label="demo")
        assert "demo" in art
        assert "#" in art

    def test_ascii_series_dimensions(self):
        art = ascii_series(list(range(1, 100)), width=40, height=7,
                           label="dims")
        lines = art.splitlines()
        assert len(lines) == 1 + 7 + 1  # header + chart rows + axis
        chart = lines[1:-1]
        assert all(len(line) == 40 for line in chart)  # width truncation
        assert lines[-1] == "-" * 40

    def test_ascii_series_rising_shape(self):
        art = ascii_series(list(range(1, 41)), width=40, height=7)
        chart = art.splitlines()[:-1]  # no label -> chart rows + axis
        # The tallest column is at the right edge; the top level holds only
        # the maximum, the bottom level excludes the smallest values.
        assert chart[0][-1] == "#" and chart[0][0] == " "
        assert chart[-1][-1] == "#" and chart[-1][0] == " "

    def test_ascii_series_max_in_header(self):
        art = ascii_series([3.0, 9.0], label="peak")
        assert "max=9" in art and "rounds=2" in art

    def test_ascii_series_empty(self):
        assert ascii_series([]) == "(empty series)"

    def test_ascii_series_all_zero_series_renders_blank_chart(self):
        art = ascii_series([0.0, 0.0, 0.0])
        assert "#" not in art


class TestTables:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1.0], ["long-name", 22.5]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "long-name" in text
        assert len(lines) == 5

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_table_without_title_has_no_title_line(self):
        lines = format_table(["a"], [["x"]]).splitlines()
        assert lines[0] == "a"

    def test_non_float_cells_are_stringified(self):
        text = format_table(["k", "v"], [["count", 3], ["flag", True]])
        assert "3" in text and "True" in text


class TestMarkdownTables:
    def test_structure(self):
        text = format_markdown_table(["name", "value"],
                                     [["a", 1.0], ["b", 22.5]])
        lines = text.splitlines()
        assert lines[0] == "| name | value |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| a | 1.00 |"
        assert lines[3] == "| b | 22.50 |"

    def test_pipes_are_escaped(self):
        text = format_markdown_table(["label"], [["a|b"]])
        assert "a\\|b" in text

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            format_markdown_table(["a", "b"], [["only-one"]])
