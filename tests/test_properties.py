"""Property-based tests (hypothesis) on core invariants.

Each property pits a component against a simple reference model or a
structural invariant under randomly generated operation sequences —
exactly the class of bug (placement drift, lost pages, stale mappings)
that plagues real flash-management code.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cleaning import (GreedyPolicy, HybridPolicy,
                            LocalityGatheringPolicy, PolicySimulator,
                            WearLeveler, cleaning_cost, utilization_for_cost)
from repro.core import EnvyConfig, EnvySystem
from repro.db import BTree, BTreeGeometry
from repro.ramdisk import BlockDevice
from repro.sram import WriteBuffer

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


class TestCostModelProperties:
    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(**COMMON)
    def test_cost_round_trip(self, utilization):
        assert utilization_for_cost(cleaning_cost(utilization)) == \
            pytest.approx(utilization, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=0.999),
           st.floats(min_value=0.0, max_value=0.999))
    @settings(**COMMON)
    def test_cost_monotone(self, a, b):
        low, high = sorted((a, b))
        assert cleaning_cost(low) <= cleaning_cost(high)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(**COMMON)
    def test_cost_non_negative(self, utilization):
        value = cleaning_cost(utilization)
        assert value >= 0.0 or math.isinf(value)


class TestWriteBufferProperties:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60))
    @settings(**COMMON)
    def test_fifo_eviction_order(self, pages):
        """Evictions happen in first-insertion order, regardless of
        coalesced rewrites in between."""
        buffer = WriteBuffer(capacity_pages=8)
        inserted = []
        evicted = []
        for page in pages:
            if page in buffer:
                buffer.get(page)
                continue
            if buffer.is_full:
                evicted.append(buffer.pop_tail().logical_page)
            buffer.insert(page, None, origin=0)
            inserted.append(page)
        while len(buffer):
            evicted.append(buffer.pop_tail().logical_page)
        assert evicted == inserted


class TestStoreProperties:
    @given(policy_index=st.integers(0, 2),
           writes=st.lists(st.integers(0, 10 ** 6), min_size=1,
                           max_size=300))
    @settings(max_examples=30, **COMMON)
    def test_policies_never_corrupt_placement(self, policy_index, writes):
        """After any write sequence, every live page is findable, counts
        agree, and the physical mapping is a bijection."""
        policy = (GreedyPolicy(), LocalityGatheringPolicy(),
                  HybridPolicy(partition_segments=4))[policy_index]
        simulator = PolicySimulator(policy, num_segments=8,
                                    pages_per_segment=16,
                                    buffer_pages=4)
        live = simulator.store.num_logical_pages
        for value in writes:
            simulator.write(value % live)
        simulator.store.check_invariants()
        simulator.drain()
        simulator.store.check_invariants()
        # Every logical page is resident in flash after a drain.
        for page in range(live):
            assert simulator.store.position_of(page) is not None

    @given(writes=st.lists(st.integers(0, 10 ** 6), min_size=50,
                           max_size=300))
    @settings(max_examples=20, **COMMON)
    def test_live_page_count_is_conserved(self, writes):
        simulator = PolicySimulator(GreedyPolicy(), num_segments=8,
                                    pages_per_segment=16, buffer_pages=4)
        live = simulator.store.num_logical_pages
        for value in writes:
            simulator.write(value % live)
        buffered = len(simulator._buffer)
        assert simulator.store.live_pages() + buffered == live


def _poll_every_flush(simulator, pages):
    """Reference replay: the wear leveler is polled after *every* flush,
    as the simulator did before polls were gated on erases."""
    store, policy = simulator.store, simulator.policy
    leveler, buffer = simulator.leveler, simulator._buffer
    for page in pages:
        simulator.host_writes += 1
        if page in buffer:
            simulator.buffer_hits += 1
            continue
        if simulator.buffer_pages == 0:
            policy.flush(page, store.buffer_page(page))
            leveler.maybe_level(store)
            continue
        if len(buffer) >= simulator.buffer_pages:
            victim, origin = buffer.popitem(last=False)
            policy.flush(victim, origin)
            leveler.maybe_level(store)
        buffer[page] = store.buffer_page(page)


class TestWearPollGating:
    POLICIES = (GreedyPolicy, LocalityGatheringPolicy,
                lambda: HybridPolicy(partition_segments=4))

    def pair(self, policy_index, buffer_pages, threshold, cooldown):
        pair = []
        for _ in range(2):
            simulator = PolicySimulator(self.POLICIES[policy_index](),
                                        num_segments=8, pages_per_segment=16,
                                        buffer_pages=buffer_pages)
            simulator.leveler = WearLeveler(threshold, cooldown)
            pair.append(simulator)
        return pair

    @staticmethod
    def end_state(simulator):
        store = simulator.store
        return (simulator.result(), simulator.leveler.swap_count,
                store.page_location, store.phys_erase_counts,
                [(p.slots, p.phys, sorted(p.demoted))
                 for p in store.positions])

    @given(policy_index=st.integers(0, 2),
           buffer_pages=st.sampled_from([0, 4]),
           threshold=st.integers(1, 3),
           cooldown=st.sampled_from([0, 1, 16]),
           hot_pages=st.integers(1, 12),
           count=st.integers(200, 1200),
           seed=st.integers(0, 2 ** 16))
    # Locality flush onto a position still solid after its clean: the
    # forced shed freed no slot and the append raised (both simulators).
    @example(policy_index=1, buffer_pages=4, threshold=1, cooldown=16,
             hot_pages=1, count=983, seed=1)
    @settings(max_examples=40, **COMMON)
    def test_gated_polls_equal_polling_every_flush(
            self, policy_index, buffer_pages, threshold, cooldown,
            hot_pages, count, seed):
        gated, reference = self.pair(policy_index, buffer_pages, threshold,
                                     cooldown)
        live = gated.store.num_logical_pages
        rng = random.Random(seed)
        # A small hot set wears a few segments fast, so swaps fire.
        pages = [rng.randrange(hot_pages) if rng.random() < 0.9
                 else rng.randrange(live) for _ in range(count)]
        split = count // 3
        gated._replay(iter(pages[:split]))
        gated._replay(iter(pages[split:]))
        _poll_every_flush(reference, pages)
        assert self.end_state(gated) == self.end_state(reference)
        gated.store.check_invariants()

    @pytest.mark.parametrize("cooldown", [0, 1, 16])
    def test_swaps_fire_under_every_cooldown(self, cooldown):
        """Non-vacuity for the property above, including the cooldown-0
        case where a poll right after a swap may swap again."""
        gated, reference = self.pair(1, 0, 1, cooldown)
        rng = random.Random(9)
        pages = [rng.randrange(6) for _ in range(3000)]
        gated._replay(iter(pages))
        _poll_every_flush(reference, pages)
        assert gated.leveler.swap_count > 3
        assert self.end_state(gated) == self.end_state(reference)


class TestControllerProperties:
    @given(operations=st.lists(
        st.tuples(st.integers(0, 2000), st.binary(min_size=1, max_size=24)),
        min_size=1, max_size=120),
        power_cycles=st.booleans())
    @settings(max_examples=25, **COMMON)
    def test_read_your_writes(self, operations, power_cycles):
        """The controller agrees with a plain bytearray shadow model."""
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=16))
        shadow = bytearray(system.size_bytes)
        for address, data in operations:
            address = address % (system.size_bytes - len(data))
            system.write(address, data)
            shadow[address:address + len(data)] = data
        if power_cycles:
            system.power_cycle()
        for address, data in operations:
            address = address % (system.size_bytes - len(data))
            assert system.read(address, len(data)) == \
                bytes(shadow[address:address + len(data)])
        system.check_consistency()


class TestCrashRecoveryProperties:
    @given(operations=st.lists(
        st.tuples(st.integers(0, 2000), st.binary(min_size=1, max_size=8)),
        min_size=20, max_size=150),
        crash_schedule=st.lists(st.integers(1, 25), min_size=1,
                                max_size=5),
        policy_index=st.integers(0, 1))
    @settings(max_examples=20, **COMMON)
    def test_no_committed_byte_lost_at_any_crash_point(
            self, operations, crash_schedule, policy_index):
        """Crash at arbitrary Flash operations; recovery keeps every
        committed write readable."""
        from repro.core.chaos import KillSwitch
        from repro.core.recovery import (SimulatedPowerFailure,
                                         attach_journal, recover)

        policy = ("greedy", "hybrid")[policy_index]
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=16,
                                             cleaning_policy=policy))
        journal = attach_journal(system)
        injector = KillSwitch(system.array)
        # Align writes to 8-byte slots so each is single-page atomic;
        # a crashed multi-page write may legitimately half-commit, which
        # is the application's problem (transactions), not recovery's.
        slots = (system.size_bytes - 8) // 8
        shadow = {}
        committed = []
        schedule = list(crash_schedule)
        injector.arm(schedule.pop(0))
        for slot, data in operations:
            address = (slot % slots) * 8
            try:
                system.write(address, data)
                shadow[address] = True
                committed.append((address, data))
            except SimulatedPowerFailure:
                recover(system, journal)
                if schedule:
                    injector.arm(schedule.pop(0))
        injector.disarm()
        recover(system, journal)
        system.check_consistency()
        # Replay the committed log for the exact expected final state.
        expected = bytearray(system.size_bytes)
        for address, data in committed:
            expected[address:address + len(data)] = data
        for address in shadow:
            assert system.read(address, 8) == \
                bytes(expected[address:address + 8])


class TestBTreeProperties:
    @given(num_keys=st.integers(1, 3000), fanout=st.integers(3, 32),
           probes=st.lists(st.integers(0, 10 ** 6), max_size=30))
    @settings(max_examples=25, **COMMON)
    def test_tree_agrees_with_dict(self, num_keys, fanout, probes):
        class Ram:
            def __init__(self):
                self.data = bytearray(1 << 20)

            def read(self, address, length):
                return bytes(self.data[address:address + length])

            def write(self, address, data):
                self.data[address:address + len(data)] = data

        entries = {key: (key * 7919) % 2 ** 40 - 2 ** 39
                   for key in range(num_keys)}
        geometry = BTreeGeometry(64, num_keys, fanout)
        tree = BTree.bulk_load(Ram(), geometry, entries.__getitem__)
        for key in {0, num_keys - 1, num_keys // 2, *probes}:
            assert tree.search(key) == entries.get(key)


class TestBlockDeviceProperties:
    @given(script=st.lists(
        st.tuples(st.sampled_from(["write", "power_cycle"]),
                  st.integers(0, 4),
                  st.binary(min_size=1, max_size=512)),
        min_size=1, max_size=15))
    @settings(max_examples=15, **COMMON)
    def test_block_device_agrees_with_dict(self, script):
        """Sectors written through the RAM-disk path survive power
        cycles and a reopened device."""
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=64))
        device = BlockDevice(system, block_bytes=512)
        model = {}
        for action, block, payload in script:
            if action == "write":
                sector = payload.ljust(512, b"\x00")
                device.write_block(block, sector)
                model[block] = sector
            else:
                system.power_cycle()
                device = BlockDevice(system, block_bytes=512)
        for block, sector in model.items():
            assert device.read_block(block) == sector
