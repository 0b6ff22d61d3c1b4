"""Tests for the generic timed workload on the event-driven simulator."""

import pytest

from repro.core import EnvyConfig, EnvyController
from repro.sim import TimedSimulator
from repro.workloads import BimodalWorkload, page_runs
from repro.workloads.timed import SyntheticTimedWorkload
from repro.workloads.tpca import STRADDLING_READ, WORD_WRITE


def build(rate=5_000, reads=8, writes=2, seed=3, **workload_kwargs):
    config = EnvyConfig.scaled(num_segments=32, pages_per_segment=256)
    controller = EnvyController(config, store_data=False)
    workload = SyntheticTimedWorkload(controller.size_bytes, rate,
                                      reads_per_op=reads,
                                      writes_per_op=writes, seed=seed,
                                      **workload_kwargs)
    return TimedSimulator(controller, workload, seed=seed + 1)


class TestProtocol:
    def test_arrivals_match_rate(self):
        workload = SyntheticTimedWorkload(1 << 20, 10_000, seed=1)
        arrivals = [workload.next_transaction().arrival_ns
                    for _ in range(4000)]
        span = arrivals[-1] / 1e9
        assert 4000 / span == pytest.approx(10_000, rel=0.1)

    def test_access_mix(self):
        workload = SyntheticTimedWorkload(1 << 20, 100, reads_per_op=5,
                                          writes_per_op=3, seed=2)
        trace = workload.accesses(workload.next_transaction())
        assert sum(1 for w, _ in trace if not w) == 5
        assert sum(1 for w, _ in trace if w) == 3

    def test_addresses_in_range(self):
        workload = SyntheticTimedWorkload(1 << 16, 100, seed=4)
        for _ in range(50):
            for _, address in workload.accesses(
                    workload.next_transaction()):
                assert 0 <= address < (1 << 16)

    def test_runs_are_the_accesses_grouped_by_page(self):
        hot = BimodalWorkload(64, 0.05, 0.95, seed=6)   # same-page repeats
        workload = SyntheticTimedWorkload(1 << 14, 100, page_workload=hot,
                                          seed=6)
        traces = [workload.accesses(workload.next_transaction())
                  for _ in range(40)]
        workload.reset(seed=6)
        runs = [workload.runs(workload.next_transaction(), 256)
                for _ in traces]
        assert runs == [page_runs(trace, 256) for trace in traces]
        assert any(count > 1 for txn_runs in runs for _, count in txn_runs)
        assert page_runs([(False, 0), (False, 248), (False, 249),
                          (True, 8), (False, 256), (False, 264)], 256) \
            == [(0, 2), (249, STRADDLING_READ), (8, WORD_WRITE), (1, 2)]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SyntheticTimedWorkload(1 << 20, 0)
        with pytest.raises(ValueError):
            SyntheticTimedWorkload(1 << 20, 100, reads_per_op=0,
                                   writes_per_op=0)
        with pytest.raises(ValueError):
            SyntheticTimedWorkload(64, 100)

    def test_reset(self):
        workload = SyntheticTimedWorkload(1 << 20, 100, seed=5)
        first = workload.accesses(workload.next_transaction())
        workload.reset(seed=5)
        assert workload.accesses(workload.next_transaction()) == first


class TestOnSimulator:
    def test_light_load_runs(self):
        simulator = build(rate=5_000)
        simulator.prewarm(2)
        stats = simulator.run(0.05, warmup_s=0.01)
        assert stats.throughput_tps == pytest.approx(5_000, rel=0.15)
        # Uniform random reads miss the MMU translation cache almost
        # every time, so the mean sits near 260 ns (160 + table read) —
        # unlike TPC-A, whose reused index nodes stay cached.
        assert 160 <= stats.read_latency.mean_ns <= 280

    def test_write_heavy_mix_saturates_sooner(self):
        light_writes = build(rate=200_000, reads=8, writes=1, seed=9)
        light_writes.prewarm(3)
        heavy_writes = build(rate=200_000, reads=8, writes=6, seed=9)
        heavy_writes.prewarm(3)
        light_stats = light_writes.run(0.03, warmup_s=0.01)
        heavy_stats = heavy_writes.run(0.03, warmup_s=0.01)
        assert heavy_stats.throughput_tps < light_stats.throughput_tps

    def test_composes_with_locality_workloads(self):
        config = EnvyConfig.scaled(num_segments=32, pages_per_segment=256)
        controller = EnvyController(config, store_data=False)
        pages = controller.size_bytes // config.page_bytes
        hot_cold = BimodalWorkload(pages, 0.05, 0.95, seed=7)
        workload = SyntheticTimedWorkload(controller.size_bytes, 20_000,
                                          page_workload=hot_cold, seed=7)
        simulator = TimedSimulator(controller, workload, seed=8)
        simulator.prewarm(2)
        stats = simulator.run(0.03, warmup_s=0.01)
        assert stats.transactions_completed > 0
        # Hot pages coalesce: far fewer flushes than writes issued.
        writes_issued = stats.transactions_completed * 2
        assert stats.pages_flushed < writes_issued
        controller.store.check_invariants()
