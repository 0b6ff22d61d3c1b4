"""Tests for the Figure 1 cost model and Section 5.5 lifetime model."""

import math

import pytest

from repro.core import (EnvyConfig, estimate_lifetime, paper_example,
                        system_cost)
from repro.core.costmodel import TECHNOLOGIES


class TestTechnologies:
    def test_figure_1_rows_present(self):
        assert set(TECHNOLOGIES) == {"disk", "dram", "sram", "flash"}

    def test_figure_1_costs(self):
        assert TECHNOLOGIES["disk"].cost_per_mib == 1.00
        assert TECHNOLOGIES["dram"].cost_per_mib == 35.00
        assert TECHNOLOGIES["sram"].cost_per_mib == 120.00
        assert TECHNOLOGIES["flash"].cost_per_mib == 30.00

    def test_flash_needs_no_retention_power(self):
        assert TECHNOLOGIES["flash"].retention_current_per_gib == "0A"
        assert TECHNOLOGIES["disk"].retention_current_per_gib == "0A"

    def test_rows_render(self):
        assert TECHNOLOGIES["flash"].row[0] == "Flash"


class TestSystemCost:
    def test_paper_system_costs_about_70k(self):
        # Section 5.1: "The total cost of such a system ... is estimated
        # to be about $70,000."
        cost = system_cost(EnvyConfig.paper())
        assert cost.total_dollars == pytest.approx(70_000, rel=0.05)

    def test_sram_alternative_costs_about_250k(self):
        # Section 5.1: "about one quarter of a pure SRAM system of the
        # same size ($250,000)".
        cost = system_cost(EnvyConfig.paper())
        assert cost.sram_only_alternative() == pytest.approx(250_000,
                                                             rel=0.05)
        assert cost.savings_vs_sram == pytest.approx(4.0, rel=0.15)

    def test_page_table_overhead_about_10_percent(self):
        # Section 3.3: "only about a 10% increase in overall cost".
        cost = system_cost(EnvyConfig.paper())
        assert cost.page_table_overhead == pytest.approx(0.10, abs=0.02)

    def test_component_sum(self):
        cost = system_cost(EnvyConfig.paper())
        assert cost.total_dollars == pytest.approx(
            cost.flash_dollars + cost.write_buffer_dollars
            + cost.page_table_dollars)


class TestLifetime:
    def test_paper_example_reproduces_section_5_5(self):
        # "= 3,151 days of continuous use (8.63 years)"
        estimate = paper_example()
        assert estimate.days == pytest.approx(3151, rel=0.01)
        assert estimate.years == pytest.approx(8.63, rel=0.01)

    def test_write_rate_includes_cleaning(self):
        estimate = estimate_lifetime(EnvyConfig.paper(),
                                     page_flush_rate=1000,
                                     cleaning_cost=3.0)
        assert estimate.page_write_rate == pytest.approx(4000)

    def test_zero_rate_is_infinite(self):
        estimate = estimate_lifetime(EnvyConfig.paper(),
                                     page_flush_rate=0.0, cleaning_cost=0.0)
        assert math.isinf(estimate.seconds)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            estimate_lifetime(EnvyConfig.paper(), -1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_lifetime(EnvyConfig.paper(), 1.0, -1.0)

    def test_str_mentions_days(self):
        assert "days" in str(paper_example())
