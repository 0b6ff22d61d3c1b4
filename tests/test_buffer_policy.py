"""Tests for the FIFO/LRU buffer-eviction ablation in the simulator."""

import pytest

from repro.cleaning import GreedyPolicy, HybridPolicy, PolicySimulator
from repro.workloads import BimodalWorkload


class TestSimulatorBufferPolicy:
    def run_sim(self, buffer_policy):
        simulator = PolicySimulator(HybridPolicy(8), num_segments=32,
                                    pages_per_segment=64,
                                    buffer_pages=64,
                                    buffer_policy=buffer_policy)
        live = simulator.store.num_logical_pages
        workload = BimodalWorkload(live, 0.02, 0.9, seed=5)
        return simulator.run(workload, live * 2, warmup_writes=live)

    def test_lru_hits_at_least_as_often(self):
        fifo = self.run_sim("fifo")
        lru = self.run_sim("lru")
        assert lru.buffer_hit_rate >= fifo.buffer_hit_rate
        # And correspondingly flushes no more.
        assert lru.flushes <= fifo.flushes

    def test_fifo_is_close_behind(self):
        # The paper's justification for the simple scheme.
        fifo = self.run_sim("fifo")
        lru = self.run_sim("lru")
        assert fifo.buffer_hit_rate > lru.buffer_hit_rate - 0.15

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PolicySimulator(GreedyPolicy(), num_segments=8,
                            pages_per_segment=32, buffer_policy="arc")

    def test_policies_identical_without_rehits(self):
        """With no coalescing the eviction order cannot differ."""
        results = []
        for buffer_policy in ("fifo", "lru"):
            simulator = PolicySimulator(GreedyPolicy(), num_segments=8,
                                        pages_per_segment=32,
                                        buffer_pages=4,
                                        buffer_policy=buffer_policy)
            live = simulator.store.num_logical_pages
            # A strict sweep never rewrites a buffered page.
            from repro.workloads import SequentialWorkload
            result = simulator.run(SequentialWorkload(live), live)
            results.append((result.flushes, result.clean_copies))
        assert results[0] == results[1]
