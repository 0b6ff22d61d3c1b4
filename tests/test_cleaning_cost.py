"""Tests for the analytic cleaning-cost model (Section 4.1, Figure 6)."""

import math

import pytest

from repro.cleaning import cleaning_cost


class TestCleaningCost:
    def test_cost_at_80_percent_is_4(self):
        # Section 4.1: a naive scheme keeping segments at 80% has cost 4.
        assert cleaning_cost(0.8) == pytest.approx(4.0)

    def test_cost_at_50_percent_is_1(self):
        assert cleaning_cost(0.5) == pytest.approx(1.0)

    def test_cost_at_zero(self):
        assert cleaning_cost(0.0) == 0.0

    def test_cost_at_full_is_infinite(self):
        assert math.isinf(cleaning_cost(1.0))

    def test_cost_monotonically_increases(self):
        samples = [i / 20 for i in range(20)]
        costs = [cleaning_cost(u) for u in samples]
        assert costs == sorted(costs)

    def test_cost_explodes_past_80_percent(self):
        # Figure 6: "After about 80% utilization, the cleaning cost
        # quickly reaches unreasonable levels."
        assert cleaning_cost(0.9) == pytest.approx(9.0)
        assert cleaning_cost(0.95) == pytest.approx(19.0)
        assert cleaning_cost(0.99) == pytest.approx(99.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cleaning_cost(-0.1)
        with pytest.raises(ValueError):
            cleaning_cost(1.1)
