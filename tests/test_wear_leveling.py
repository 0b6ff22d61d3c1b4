"""Tests for the 100-cycle wear-leveling swap (Section 4.3)."""

import copy

import pytest

from repro.cleaning import (GreedyPolicy, LocalityGatheringPolicy,
                            PolicySimulator, SegmentStore, WearLeveler)
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

    def test_swap_copies_are_wear_cleans_not_cleaning_cost(self):
        policy = LocalityGatheringPolicy()
        sim = PolicySimulator(policy, num_segments=16, pages_per_segment=64,
                              utilization=0.8, buffer_pages=0,
                              wear_leveling=True, wear_threshold=20)
        live = sim.store.num_logical_pages
        result = sim.run(BimodalWorkload(live, 0.05, 0.95, seed=11),
                         live * 12)
        assert result.wear_swaps > 0 and result.wear_cleans > 0
        assert result.clean_copies + result.wear_cleans == \
            sim.store.clean_copy_count
        assert result.cleaning_cost == result.clean_copies / result.flushes
        assert result.write_amplification == \
            1 + sim.store.clean_copy_count / result.flushes

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


class TestWarmupReset:
    """The counters reset after warm-up reset the leveler too.

    Before the fix the leveler kept its warm-up swap count and the
    erase count of its last swap while the store's erase count went back
    to 0, so the cooldown test stayed negative — levelling was off —
    until the measured erases passed the warm-up's, and ``wear_swaps``
    reported warm-up swaps.  Tier-1 store geometry (16 x 32, threshold
    6), where warm-up does swap.
    """

    @staticmethod
    def warmed(warmup_writes):
        """A greedy simulator past ``run(..., 0, warmup_writes)``, its
        workload, and the swaps the warm-up made."""
        def build():
            sim = PolicySimulator(GreedyPolicy(), num_segments=16,
                                  pages_per_segment=32, utilization=0.8,
                                  buffer_pages=0, wear_threshold=6)
            live = sim.store.num_logical_pages
            return sim, BimodalWorkload.from_label(live, "10/90", seed=2024)

        probe, workload = build()
        for _ in range(warmup_writes):
            probe.write(workload.next_page())
        sim, workload = build()
        result = sim.run(workload, 0, warmup_writes=warmup_writes)
        return sim, workload, result, probe.leveler.swap_count

    def test_wear_swaps_count_measured_swaps_only(self):
        sim, _, result, warmup_swaps = self.warmed(1200)
        assert warmup_swaps > 0
        assert result.wear_swaps == result.wear_cleans == 0
        assert sim.leveler.swap_count == sim.leveler.swap_copies == 0

    @pytest.mark.parametrize("warmup_writes", [1200, 2400, 3000])
    def test_first_poll_decides_as_a_fresh_leveler(self, warmup_writes):
        """Each warm-up ends past the threshold: a fresh leveler swaps
        at once, where the stale cooldown used to refuse."""
        sim, _, _, warmup_swaps = self.warmed(warmup_writes)
        assert warmup_swaps > 0
        store = copy.deepcopy(sim.store)
        fresh = WearLeveler(sim.leveler.threshold_cycles)
        assert sim.leveler.maybe_level(sim.store)
        assert fresh.maybe_level(store)
        assert sim.store.phys_erase_counts == store.phys_erase_counts
        assert sim.store.page_location == store.page_location

    def test_measured_run_is_a_fresh_leveler_on_the_warm_store(self):
        sim, workload, _, _ = self.warmed(1200)
        twin, twin_workload = copy.deepcopy((sim, workload))
        twin.leveler = WearLeveler(sim.leveler.threshold_cycles)
        live = sim.store.num_logical_pages
        result = sim.run(workload, live * 6)
        assert result.wear_swaps > 0
        assert result == twin.run(twin_workload, live * 6)
        assert sim.store.phys_erase_counts == twin.store.phys_erase_counts
