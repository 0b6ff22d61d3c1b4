"""Tests for the B-tree stored in eNVy memory."""

import random

import pytest

from repro.core import EnvyConfig, EnvySystem
from repro.db import BTree, BTreeGeometry


class RamMemory:
    """Minimal byte-addressable memory for unit-testing the tree alone."""

    def __init__(self, size):
        self.data = bytearray(size)
        self.reads = []

    def read(self, address, length):
        self.reads.append((address, length))
        return bytes(self.data[address:address + length])

    def write(self, address, data):
        self.data[address:address + len(data)] = data


@pytest.fixture
def memory():
    return RamMemory(1 << 20)


class TestBulkLoad:
    def test_all_keys_findable(self, memory):
        geometry = BTreeGeometry(0, 5000, 32)
        tree = BTree.bulk_load(memory, geometry, lambda k: k * 10)
        for key in (0, 1, 31, 32, 1000, 4999):
            assert tree.search(key) == key * 10

    def test_missing_keys_return_none(self, memory):
        geometry = BTreeGeometry(0, 100, 32)
        tree = BTree.bulk_load(memory, geometry, lambda k: k)
        assert tree.search(100) is None
        assert tree.search(10 ** 9) is None

    def test_single_node_tree(self, memory):
        geometry = BTreeGeometry(0, 10, 32)
        tree = BTree.bulk_load(memory, geometry, lambda k: -k)
        assert tree.search(9) == -9

    def test_visited_nodes_match_geometry(self, memory):
        """The arithmetic search path predicts the real traversal."""
        geometry = BTreeGeometry(4096, 5000, 32)
        tree = BTree.bulk_load(memory, geometry, lambda k: k)
        for key in (0, 123, 2500, 4999):
            memory.reads.clear()
            tree.search(key)
            visited = [address for address, length in memory.reads
                       if length == tree.node_bytes]
            assert visited == geometry.search_path(key)

    def test_rejects_tiny_fanout(self, memory):
        with pytest.raises(ValueError):
            BTree(memory, 0, fanout=2)


class TestOnEnvy:
    def test_tree_survives_cleaning_and_power_cycle(self):
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=64))
        geometry = BTreeGeometry(0, 2000, 32)
        tree = BTree.bulk_load(system, geometry, lambda k: k * 3)
        # Stress the array so the tree's pages get cleaned and moved.
        rng = random.Random(8)
        high = geometry.total_bytes
        for _ in range(3000):
            address = rng.randrange(high, system.size_bytes - 8)
            system.write(address, b"\xAB" * 8)
        system.power_cycle()
        for key in (0, 999, 1999):
            assert tree.search(key) == key * 3
        assert system.metrics.erases > 0
