"""Tests for the timed simulator (Figures 13-15 behaviour)."""

import pytest

from repro.sim import build_tpca_system, simulate_tpca
from repro.sim.tracker import SimStats

# Small, fast configuration shared by most tests.
FAST = dict(num_segments=32, pages_per_segment=256, duration_s=0.05,
            warmup_s=0.01, prewarm_turnovers=4)


@pytest.fixture(scope="module")
def light_load():
    return simulate_tpca(2000, **FAST)


@pytest.fixture(scope="module")
def heavy_load():
    return simulate_tpca(80_000, **FAST)


class TestThroughput:
    def test_light_load_keeps_up(self, light_load):
        # Figure 13: throughput tracks the request rate below saturation.
        assert light_load.throughput_tps == pytest.approx(2000, rel=0.15)
        assert not light_load.saturated or \
            light_load.transactions_completed > 0

    def test_heavy_load_saturates(self, heavy_load):
        # Figure 13: throughput flattens once the cleaning system's
        # capacity is exceeded.
        assert heavy_load.throughput_tps < 70_000

    def test_saturation_has_no_idle_time(self, heavy_load):
        assert heavy_load.time_breakdown().get("idle", 0.0) < 0.05

    def test_light_load_mostly_idle(self, light_load):
        assert light_load.time_breakdown()["idle"] > 0.5


class TestLatency:
    def test_read_latency_near_raw_access(self, light_load):
        # Figure 15: reads stay near 180 ns at all loads.
        assert 160 <= light_load.read_latency.mean_ns <= 200

    def test_write_latency_near_200ns_below_saturation(self, light_load):
        assert 160 <= light_load.write_latency.mean_ns <= 300

    def test_reads_flat_even_at_saturation(self, heavy_load):
        assert heavy_load.read_latency.mean_ns <= 220

    def test_write_latency_jumps_at_saturation(self, heavy_load,
                                               light_load):
        # Figure 15: "the write latency jumps dramatically from 200ns to
        # 7.2us".
        assert (heavy_load.write_latency.mean_ns
                > 5 * light_load.write_latency.mean_ns)


class TestCleaningBehaviour:
    def test_flush_rate_about_one_page_per_transaction(self):
        # Section 5.5 measures 10,376 pages/s at 10,000 TPS.  Use a rate
        # high enough that segments turn over inside the window.
        stats = simulate_tpca(20_000, num_segments=32,
                              pages_per_segment=256, duration_s=0.1,
                              warmup_s=0.02, prewarm_turnovers=4)
        per_txn = stats.page_flush_rate / stats.throughput_tps
        assert 0.8 <= per_txn <= 1.6

    def test_cleaning_cost_positive_at_steady_state(self):
        stats = simulate_tpca(20_000, num_segments=32,
                              pages_per_segment=256, duration_s=0.1,
                              warmup_s=0.02, prewarm_turnovers=4)
        assert stats.cleaning_cost > 0.3

    def test_breakdown_fractions_sum_to_one(self, heavy_load):
        assert sum(heavy_load.time_breakdown().values()) == \
            pytest.approx(1.0, abs=0.01)

    def test_busy_includes_all_flash_activities(self, heavy_load):
        breakdown = heavy_load.time_breakdown()
        assert {"read", "flush", "clean", "erase"} <= set(breakdown)


class TestUtilizationCliff:
    def test_high_utilization_costs_more(self):
        low = simulate_tpca(20_000, utilization=0.5, **FAST)
        high = simulate_tpca(20_000, utilization=0.9, **FAST)
        # Figure 14: past 80% utilization performance drops steeply.
        assert high.cleaning_cost > low.cleaning_cost + 1.0


class TestSimulatorMechanics:
    def test_invalid_duration(self):
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256)
        with pytest.raises(ValueError):
            simulator.run(0)

    def test_stats_row_renders(self, light_load):
        row = light_load.row()
        assert str(round(light_load.cleaning_cost, 2)) in row or row

    def test_offered_vs_completed_accounting(self, heavy_load):
        assert (heavy_load.transactions_completed
                <= heavy_load.transactions_offered)

    def test_prewarm_reaches_steady_state(self):
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256)
        simulator.prewarm(4)
        store = simulator.controller.store
        # Free space exists but is a small share after pre-warming.
        free = sum(p.free_slots for p in store.positions)
        total = store.num_positions * store.pages_per_segment
        assert free < total * 0.35
        assert len(simulator.controller.buffer) >= \
            simulator.controller.buffer.threshold_pages

    def test_store_invariants_after_run(self, heavy_load):
        # heavy_load fixture already ran; build a fresh one to inspect.
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256,
                                      rate_tps=30_000)
        simulator.prewarm(2)
        simulator.run(0.02)
        simulator.controller.store.check_invariants()

    def test_word_read_across_a_page_boundary_charges_both_pages(self):
        # TPC-A's 100-byte records straddle 256-byte pages, so _execute
        # must cost two page reads for such a word, not one.
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256)
        controller = simulator.controller
        page_bytes = controller.config.page_bytes

        class OneTransaction:
            def __init__(self, addresses):
                self.addresses = addresses

            def accesses(self, txn):
                return [(False, address) for address in self.addresses]

        aligned = [0, page_bytes - 8, 3 * page_bytes + 40]
        straddling = [page_bytes - 7, 2 * page_bytes - 1]
        simulator.workload = OneTransaction(aligned + straddling)
        stats = SimStats(requested_tps=1.0)
        clock = simulator._execute(None, 0, False, stats)
        assert controller.metrics.reads == len(aligned) + 2 * len(straddling)
        assert stats.read_latency.count == len(aligned) + len(straddling)
        assert clock == controller.metrics.busy_ns["read"]
        assert stats.read_latency.max_ns >= 2 * 160
