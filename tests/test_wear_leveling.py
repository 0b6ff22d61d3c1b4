"""Tests for the 100-cycle wear-leveling swap (Section 4.3)."""

import pytest

from repro.cleaning import (LocalityGatheringPolicy, PolicySimulator,
                            SegmentStore, WearLeveler)
from repro.workloads import BimodalWorkload


class TestWearLeveler:
    def test_no_swap_below_threshold(self):
        store = SegmentStore(4, 8, 16)
        store.populate_contiguous()
        leveler = WearLeveler(threshold_cycles=5, cooldown_erases=0)
        store.clean(0)
        assert not leveler.maybe_level(store)
        assert leveler.swap_count == 0

    def test_swap_fires_past_threshold(self):
        store = SegmentStore(4, 8, 16)
        store.populate_contiguous()
        leveler = WearLeveler(threshold_cycles=3, cooldown_erases=0)
        for _ in range(9):
            store.clean(0)
        assert store.wear_spread() >= 4
        assert leveler.maybe_level(store)
        assert leveler.swap_count == 1

    def test_swap_parks_cold_data_on_worn_segment(self):
        store = SegmentStore(4, 8, 16)
        store.populate_contiguous()
        leveler = WearLeveler(threshold_cycles=3, cooldown_erases=0)
        for _ in range(9):
            store.clean(0)
        worn_phys = max(range(len(store.phys_erase_counts)),
                        key=store.phys_erase_counts.__getitem__)
        cold_data = set()
        for pos in store.positions:
            if pos.index != 0:
                cold_data.update(p for s, p in enumerate(pos.slots)
                                 if store.page_location[p] == (pos.index, s))
        leveler.maybe_level(store)
        # The worn physical segment now backs one of the cold positions.
        backed = [p for p in store.positions if p.phys == worn_phys]
        assert len(backed) == 1
        landed = {page for slot, page in enumerate(backed[0].slots)
                  if store.page_location[page] == (backed[0].index, slot)}
        assert landed <= cold_data

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ValueError, match="-2"):
            WearLeveler(threshold_cycles=3, cooldown_erases=-2)
        assert WearLeveler(3, cooldown_erases=0).cooldown_erases == 0

    def test_cooldown_prevents_swap_storm(self):
        store = SegmentStore(4, 8, 16)
        store.populate_contiguous()
        leveler = WearLeveler(threshold_cycles=3, cooldown_erases=100)
        for _ in range(9):
            store.clean(0)
        assert leveler.maybe_level(store)
        for _ in range(3):
            store.clean(0)
        # Still over threshold, but inside the cooldown window.
        assert not leveler.maybe_level(store)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            WearLeveler(threshold_cycles=0)


class TestWearLevelingEndToEnd:
    def test_spread_stays_bounded_under_skew(self):
        """Section 4.3: leveling keeps segment ages within ~threshold."""
        policy = LocalityGatheringPolicy()
        sim = PolicySimulator(policy, num_segments=16, pages_per_segment=64,
                              utilization=0.8, buffer_pages=0,
                              wear_leveling=True, wear_threshold=20)
        live = sim.store.num_logical_pages
        workload = BimodalWorkload(live, 0.05, 0.95, seed=11)
        sim.run(workload, live * 12)
        result = sim.result()
        assert result.wear_swaps > 0
        # Allow some slack: a swap only redirects future wear.
        assert result.wear_spread <= 20 * 3

    def test_unleveled_skew_wears_unevenly(self):
        policy = LocalityGatheringPolicy()
        sim = PolicySimulator(policy, num_segments=16, pages_per_segment=64,
                              utilization=0.8, buffer_pages=0,
                              wear_leveling=False)
        live = sim.store.num_logical_pages
        workload = BimodalWorkload(live, 0.05, 0.95, seed=11)
        sim.run(workload, live * 12)
        result = sim.result()
        assert result.wear_swaps == 0
        leveled = PolicySimulator(LocalityGatheringPolicy(), num_segments=16,
                                  pages_per_segment=64, utilization=0.8,
                                  buffer_pages=0, wear_leveling=True,
                                  wear_threshold=20)
        workload.reset()
        leveled.run(workload, live * 12)
        assert leveled.result().wear_spread < result.wear_spread
