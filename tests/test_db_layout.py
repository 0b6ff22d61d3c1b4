"""Tests for the TPC-A address-space layout and B-tree geometry."""

import pytest

from repro.core.config import TpcParams
from repro.db.layout import (ENTRY_BYTES, NODE_HEADER_BYTES, BTreeGeometry,
                             TpcaLayout)


@pytest.fixture
def small_params():
    return TpcParams().scaled_to_accounts(5000)


@pytest.fixture
def layout(small_params):
    return TpcaLayout(small_params)


class TestRecordRegions:
    def test_regions_are_disjoint_and_ordered(self, layout):
        assert layout.branch_base == 0
        assert layout.teller_base > layout.branch_base
        assert layout.account_base > layout.teller_base
        assert layout.branch_tree.base_address >= (
            layout.account_address(layout.params.num_accounts - 1) + 100)

    def test_record_addresses_are_packed(self, layout):
        # 100-byte records packed contiguously (how 15.5M accounts fit
        # in the 2 GB system).
        assert layout.account_address(1) - layout.account_address(0) == 100

    def test_out_of_range_records(self, layout):
        with pytest.raises(KeyError):
            layout.account_address(layout.params.num_accounts)
        with pytest.raises(KeyError):
            layout.teller_address(-1)

    def test_total_bytes_covers_everything(self, layout):
        tree = layout.account_tree
        assert layout.total_bytes == tree.base_address + tree.total_bytes


class TestBTreeGeometry:
    def test_node_size(self):
        geometry = BTreeGeometry(0, 1000, 32)
        assert geometry.node_bytes == NODE_HEADER_BYTES + 32 * ENTRY_BYTES

    def test_depth_matches_paper_figures(self):
        # Figure 12: 155 branches -> 2 levels, 1550 tellers -> 3,
        # 15.5M accounts -> 5.
        assert BTreeGeometry(0, 155, 32).depth == 2
        assert BTreeGeometry(0, 1550, 32).depth == 3
        assert BTreeGeometry(0, 15_500_000, 32).depth == 5

    def test_single_node_tree(self):
        geometry = BTreeGeometry(0, 20, 32)
        assert geometry.depth == 1
        assert geometry.total_nodes == 1
        assert geometry.search_path(7) == [0]

    def test_level_node_counts(self):
        geometry = BTreeGeometry(0, 1000, 32)  # depth 2
        assert geometry.depth == 2
        assert geometry.nodes_in_level(1) == 32  # ceil(1000/32)
        assert geometry.nodes_in_level(0) == 1

    def test_search_path_lengths(self):
        geometry = BTreeGeometry(0, 5000, 32)  # depth 3
        for key in (0, 4999, 2500):
            assert len(geometry.search_path(key)) == 3

    def test_search_path_root_first(self):
        geometry = BTreeGeometry(1000, 5000, 32)
        path = geometry.search_path(0)
        assert path[0] == 1000  # root at the region base

    def test_search_paths_differ_for_distant_keys(self):
        geometry = BTreeGeometry(0, 5000, 32)
        assert geometry.search_path(0)[-1] != geometry.search_path(4999)[-1]

    def test_search_path_rejects_bad_key(self):
        geometry = BTreeGeometry(0, 100, 32)
        with pytest.raises(KeyError):
            geometry.search_path(100)

    def test_search_nodes_name_the_slot_followed_and_the_entries_held(self):
        geometry = BTreeGeometry(0, 5000, 32)
        nodes = geometry.search_nodes(37)
        assert [address for address, _, _ in nodes] \
            == geometry.search_path(37)
        # 37 is under root entry 0, level-1 entry 1, leaf slot 37 % 32.
        assert [(slot, entries) for _, slot, entries in nodes] \
            == [(0, 32), (1, 32), (5, 32)]
        # The last leaf holds the 5000 % 32 keys that are left.
        assert geometry.search_nodes(4999)[-1][1:] == (4999 % 32, 5000 % 32)
        assert BTreeGeometry(0, 64, 32).search_nodes(63)[-1][1:] == (31, 32)

    def test_cached_depth_and_level_bases_match_the_sums(self):
        # depth and the level bases are derived once per (frozen)
        # instance; they must equal the sums they replaced.
        for keys, fanout, base in [(1, 32, 0), (20, 32, 64), (1000, 32, 0),
                                   (5000, 32, 4096), (33, 2, 8),
                                   (15_500_000, 32, 1 << 20)]:
            geometry = BTreeGeometry(base, keys, fanout)
            levels, capacity = 1, fanout
            while capacity < keys:
                capacity *= fanout
                levels += 1
            assert geometry.depth == levels
            for level in range(levels + 1):
                nodes = sum(geometry.nodes_in_level(l)
                            for l in range(level))
                assert geometry.level_base(level) == \
                    base + nodes * geometry.node_bytes
            assert geometry.level_base(levels) == \
                base + geometry.total_bytes
            for level in (-1, levels + 1):
                with pytest.raises(IndexError):
                    geometry.level_base(level)

    def test_caches_do_not_leak_into_identity(self):
        import dataclasses

        warm = BTreeGeometry(0, 5000, 32)
        warm.search_path(1234)            # fills the caches
        cold = BTreeGeometry(0, 5000, 32)
        assert warm == cold and hash(warm) == hash(cold)
        with pytest.raises(dataclasses.FrozenInstanceError):
            warm.num_keys = 10
        moved = dataclasses.replace(warm, base_address=4096, num_keys=20)
        assert moved.depth == 1 and moved.level_base(0) == 4096

    def test_probe_offsets_bisect(self):
        addresses = BTreeGeometry.probe_offsets(0, 5, 32)
        # log2(32) = 5 probes, all inside the entry area.
        assert len(addresses) == 5
        for address in addresses:
            assert NODE_HEADER_BYTES <= address < NODE_HEADER_BYTES + 32 * 16

    def test_probe_offsets_end_on_target(self):
        for target in (0, 7, 31):
            addresses = BTreeGeometry.probe_offsets(0, target, 32)
            expected = NODE_HEADER_BYTES + target * ENTRY_BYTES
            assert addresses[-1] == expected

    def test_probe_offsets_empty_node(self):
        assert BTreeGeometry.probe_offsets(0, 0, 0) == []

    def test_memoised_probe_offsets_match_the_bisection(self):
        def bisection(node_address, target_slot, entries):
            """``probe_offsets`` as it stood before the memo."""
            if entries <= 0:
                return []
            lo, hi = 0, entries
            probes = []
            while lo < hi - 1:
                mid = (lo + hi) // 2
                probes.append(mid)
                if target_slot < mid:
                    hi = mid
                else:
                    lo = mid
            if lo not in probes:
                probes.append(lo)
            return [node_address + NODE_HEADER_BYTES + p * ENTRY_BYTES
                    for p in probes]

        # Twice over, so the second pass is answered from the memo, and
        # at two node addresses, so the memo cannot hold absolute ones.
        for node_address in (0, 528 * 7, 0):
            for entries in range(-2, 33):
                for slot in range(0, max(entries, 1)):
                    got = BTreeGeometry.probe_offsets(node_address, slot,
                                                      entries)
                    assert got == bisection(node_address, slot, entries)
                    assert type(got) is list
        first = BTreeGeometry.probe_offsets(0, 5, 32)
        first.append(-1)                   # callers own the list
        assert BTreeGeometry.probe_offsets(0, 5, 32)[-1] != -1


class TestSizedFor:
    def test_fits_within_budget(self):
        layout = TpcaLayout.sized_for(10 * 1024 * 1024)
        assert layout.total_bytes <= 10 * 1024 * 1024 * 0.96
        assert layout.params.num_accounts > 50_000

    def test_ratios_preserved(self):
        layout = TpcaLayout.sized_for(10 * 1024 * 1024)
        params = layout.params
        assert params.num_tellers == params.num_branches * 10

    def test_too_small_space_rejected(self):
        with pytest.raises(ValueError):
            TpcaLayout.sized_for(50)
