"""Tests for the closed-form capacity model."""

import pytest

from repro.core import EnvyConfig
from repro.sim import CapacityModel, TransactionProfile


class TestSteadyStateUtilization:
    def test_fixed_point_below_array_utilization(self):
        # Data keeps dying while a segment waits: cleaned segments sit
        # below the array average.
        u = CapacityModel._steady_state_utilization(0.8)
        assert 0.5 < u < 0.8

    def test_matches_paper_cleaning_cost(self):
        model = CapacityModel(EnvyConfig.paper())
        assert model.cleaning_cost == pytest.approx(1.97, abs=0.6)

    def test_higher_utilization_higher_cost(self):
        low = CapacityModel(EnvyConfig.paper(),
                            cleaned_utilization=0.5)
        high = CapacityModel(EnvyConfig.paper(),
                             cleaned_utilization=0.8)
        assert high.cleaning_cost > low.cleaning_cost


class TestWorkTerms:
    def test_transaction_time_is_the_sum(self):
        model = CapacityModel(EnvyConfig.paper())
        assert model.transaction_ns() == pytest.approx(
            model.read_ns() + model.host_write_ns() + model.flush_ns()
            + model.clean_ns() + model.erase_ns())

    def test_reads_dominate(self):
        breakdown = CapacityModel(
            EnvyConfig.paper()).time_breakdown_at_saturation()
        assert breakdown["read"] == max(breakdown.values())

    def test_breakdown_sums_to_one(self):
        breakdown = CapacityModel(
            EnvyConfig.paper()).time_breakdown_at_saturation()
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_erase_share_follows_chip_ratio(self):
        # erase per program is ~19% of program time at paper scale.
        model = CapacityModel(EnvyConfig.paper())
        ratio = model.erase_ns() / (model.flush_ns() + model.clean_ns())
        assert ratio == pytest.approx(0.19, abs=0.03)


class TestPredictions:
    def test_paper_scale_saturation_in_band(self):
        # Paper: ~30k TPS; our simulator: ~38k.  The model must land in
        # the same band.
        tps = CapacityModel(EnvyConfig.paper()).saturation_tps()
        assert 25_000 <= tps <= 45_000

    def test_sram_only_speedup_band(self):
        speedup = CapacityModel(EnvyConfig.paper()).sram_only_speedup()
        assert 1.5 <= speedup <= 3.0  # paper: ~2.5x

    def test_utilization_cliff(self):
        curve = CapacityModel(EnvyConfig.paper()).utilization_curve(
            [0.5, 0.8, 0.9, 0.95])
        assert curve[0.5] > curve[0.8] > curve[0.9] > curve[0.95]
        # The drop steepens past 80% (Figure 14's cliff).
        drop_to_80 = curve[0.5] - curve[0.8]
        drop_past_80 = curve[0.8] - curve[0.95]
        assert drop_past_80 > drop_to_80

    def test_more_reads_lower_throughput(self):
        light = CapacityModel(EnvyConfig.paper(),
                              TransactionProfile(reads=40))
        heavy = CapacityModel(EnvyConfig.paper(),
                              TransactionProfile(reads=120))
        assert light.saturation_tps() > heavy.saturation_tps()

    def test_buffer_hit_rate_cuts_write_cost(self):
        cold = CapacityModel(EnvyConfig.paper(),
                             TransactionProfile(buffer_hit_rate=0.0))
        warm = CapacityModel(EnvyConfig.paper(),
                             TransactionProfile(buffer_hit_rate=1.0))
        assert warm.host_write_ns() < cold.host_write_ns()
