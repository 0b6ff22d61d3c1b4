"""Tests for the reporting helpers (tables, series, charts)."""

import pytest

from repro.analysis import banner, format_table, line_chart


class TestBanner:
    def test_contains_title(self):
        assert "My Experiment" in banner("My Experiment")

    def test_three_lines(self):
        assert banner("x").count("\n") == 2


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1], ["longer", 22]])
        lines = table.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert len({len(line) for line in lines}) == 1  # equal widths

    def test_float_precision(self):
        table = format_table(["x"], [[1.23456]], precision=3)
        assert "1.235" in table

    def test_large_ints_get_commas(self):
        assert "12,345" in format_table(["n"], [[12345]])

    def test_bools_render_as_words(self):
        table = format_table(["ok"], [[True], [False]])
        assert "yes" in table and "no" in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


class TestLineChart:
    def test_plots_all_series(self):
        chart = line_chart({"a": [(0, 0), (10, 10)],
                            "b": [(0, 10), (10, 0)]},
                           width=20, height=8)
        assert "o a" in chart
        assert "+ b" in chart
        assert "o" in chart and "+" in chart

    def test_axis_labels(self):
        chart = line_chart({"s": [(0, 1), (5, 2)]}, width=20, height=6,
                           x_label="load", y_label="cost")
        assert "load" in chart
        assert "cost" in chart

    def test_y_range_override(self):
        chart = line_chart({"s": [(0, 1), (5, 2)]}, width=20, height=6,
                           y_min=0, y_max=10)
        assert "10" in chart.splitlines()[0]

    def test_single_point(self):
        chart = line_chart({"s": [(1, 1)]}, width=10, height=4)
        assert "o" in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({"s": []})
