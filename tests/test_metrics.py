"""Tests for the metrics plumbing (LatencyHistogram, ControllerMetrics,
SimStats)."""

import pytest

from repro.core.metrics import ControllerMetrics
from repro.obs.hist import LatencyHistogram
from repro.sim.tracker import SimStats


class TestLatencyStat:
    def test_empty(self):
        stat = LatencyHistogram()
        assert stat.mean_ns == 0.0
        assert stat.count == 0

    def test_single_sample(self):
        stat = LatencyHistogram()
        stat.record(100)
        assert (stat.min_ns, stat.max_ns, stat.mean_ns) == (100, 100, 100)

    def test_running_extremes(self):
        stat = LatencyHistogram()
        for value in (50, 200, 100):
            stat.record(value)
        assert stat.min_ns == 50
        assert stat.max_ns == 200
        assert stat.mean_ns == pytest.approx(350 / 3)

    def test_merge(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        for value in (10, 20):
            a.record(value)
        for value in (5, 100):
            b.record(value)
        a.merge(b)
        assert a.count == 4
        assert a.min_ns == 5
        assert a.max_ns == 100

    def test_merge_empty_operands(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        b.record(7)
        a.merge(LatencyHistogram())
        assert a.count == 0
        a.merge(b)
        assert (a.min_ns, a.max_ns) == (7, 7)

    def test_str(self):
        stat = LatencyHistogram()
        stat.record(42)
        assert "42" in str(stat)


class TestControllerMetrics:
    def test_charge_accumulates(self):
        metrics = ControllerMetrics()
        metrics.charge("clean", 100)
        metrics.charge("clean", 50)
        metrics.charge("read", 150)
        assert metrics.busy_ns == {"clean": 150, "read": 150}

    def test_time_breakdown_normalises(self):
        metrics = ControllerMetrics()
        metrics.charge("a", 300)
        metrics.charge("b", 100)
        breakdown = metrics.time_breakdown()
        assert breakdown["a"] == pytest.approx(0.75)
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_empty_breakdown(self):
        assert ControllerMetrics().time_breakdown() == {}

    def test_cleaning_cost(self):
        metrics = ControllerMetrics()
        metrics.flushes = 10
        metrics.clean_copies = 25
        assert metrics.cleaning_cost == 2.5

    def test_cleaning_cost_no_flushes(self):
        assert ControllerMetrics().cleaning_cost == 0.0

    def test_buffer_hit_rate(self):
        metrics = ControllerMetrics()
        metrics.writes = 10
        metrics.buffer_hits = 4
        assert metrics.buffer_hit_rate == 0.4

    def test_reset(self):
        metrics = ControllerMetrics()
        metrics.reads = 5
        metrics.charge("x", 10)
        metrics.read_latency.record(100)
        metrics.reset()
        assert metrics.reads == 0
        assert metrics.busy_ns == {}
        assert metrics.read_latency.count == 0

    def test_summary_mentions_key_numbers(self):
        metrics = ControllerMetrics()
        metrics.reads = 3
        metrics.writes = 2
        metrics.flushes = 1
        metrics.clean_copies = 2
        text = metrics.summary()
        assert "reads:  3" in text
        assert "2.00" in text  # the cleaning cost


class TestSimStats:
    def make(self, **overrides):
        stats = SimStats(requested_tps=10_000)
        stats.simulated_ns = int(1e9)
        stats.transactions_completed = 9_000
        stats.transactions_offered = 10_000
        for key, value in overrides.items():
            setattr(stats, key, value)
        return stats

    def test_throughput(self):
        assert self.make().throughput_tps == pytest.approx(9_000)

    def test_saturated_below_request_rate(self):
        assert self.make().saturated  # 9k completed of 10k requested

    def test_not_saturated_when_keeping_up(self):
        stats = self.make(transactions_completed=9_990)
        assert not stats.saturated

    def test_cleaning_cost(self):
        stats = self.make(pages_flushed=100, clean_copies=250)
        assert stats.cleaning_cost == 2.5

    def test_breakdown_includes_idle(self):
        stats = self.make(busy_ns={"read": int(4e8)})
        breakdown = stats.time_breakdown()
        assert breakdown["idle"] == pytest.approx(0.6)

    def test_zero_duration(self):
        stats = SimStats(requested_tps=100)
        assert stats.throughput_tps == 0.0
        assert stats.time_breakdown() == {}
