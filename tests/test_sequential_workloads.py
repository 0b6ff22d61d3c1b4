"""Tests for the sequential and strided workloads."""

import pytest

from repro.cleaning import GreedyPolicy, PolicySimulator
from repro.workloads import SequentialWorkload, StridedWorkload


class TestSequential:
    def test_walks_in_order(self):
        workload = SequentialWorkload(5)
        assert list(workload.next_pages(7)) == [0, 1, 2, 3, 4, 0, 1]

    def test_custom_start(self):
        workload = SequentialWorkload(5, start=3)
        assert list(workload.next_pages(4)) == [3, 4, 0, 1]

    def test_reset_returns_to_start(self):
        workload = SequentialWorkload(5, start=2)
        list(workload.next_pages(4))
        workload.reset()
        assert workload.next_page() == 2

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            SequentialWorkload(5, start=5)

    def test_greedy_cleans_sequential_for_free(self):
        # Whole segments invalidate together: the canonical best case.
        simulator = PolicySimulator(GreedyPolicy(), num_segments=8,
                                    pages_per_segment=32, buffer_pages=0)
        live = simulator.store.num_logical_pages
        simulator.run(SequentialWorkload(live), live * 2,
                      warmup_writes=live * 2)
        assert simulator.result().cleaning_cost < 0.3


class TestStrided:
    def test_covers_all_pages_each_cycle(self):
        workload = StridedWorkload(10, stride=3)
        seen = [workload.next_page() for _ in range(10)]
        assert sorted(set(seen)) == list(range(10)) or len(set(seen)) >= 4
        # Over enough draws every page appears.
        more = [workload.next_page() for _ in range(50)]
        assert set(seen + more) == set(range(10))

    def test_stride_one_is_sequential(self):
        workload = StridedWorkload(6, stride=1)
        assert list(workload.next_pages(6)) == [0, 1, 2, 3, 4, 5]

    def test_deterministic(self):
        a = list(StridedWorkload(20, stride=7).next_pages(40))
        b = list(StridedWorkload(20, stride=7).next_pages(40))
        assert a == b

    def test_reset(self):
        workload = StridedWorkload(20, stride=7)
        first = list(workload.next_pages(10))
        workload.reset()
        assert list(workload.next_pages(10)) == first

    def test_pages_in_range(self):
        workload = StridedWorkload(13, stride=5)
        assert all(0 <= p < 13 for p in workload.next_pages(100))

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            StridedWorkload(10, stride=0)

    def test_label(self):
        assert StridedWorkload(10, 4).label == "strided(4)"
