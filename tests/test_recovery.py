"""Crash-injection tests for power-failure recovery (Section 3.4).

The paper's claim: cleaning state lives in persistent memory, so the
controller recovers quickly from a failure at any point.  These tests
cut the power at every reachable Flash operation inside flushes and
cleans, run recovery, and verify no byte of committed data is ever lost.
"""

import random

import pytest

from repro.cleaning import make_policy
from repro.core import EnvyConfig, EnvySystem
from repro.core.chaos import KillSwitch
from repro.core.recovery import (CleanPhase, SimulatedPowerFailure,
                                 attach_journal, recover)


def loaded_system(policy="greedy", seed=0, writes=1500):
    system = EnvySystem(EnvyConfig.small(num_segments=8,
                                         pages_per_segment=16,
                                         cleaning_policy=policy))
    journal = attach_journal(system)
    injector = KillSwitch(system.array)
    rng = random.Random(seed)
    shadow = {}
    for _ in range(writes):
        address = rng.randrange(system.size_bytes - 8) & ~7
        value = rng.randbytes(8)
        system.write(address, value)
        shadow[address] = value
    return system, journal, injector, shadow, rng


def verify_all(system, shadow):
    for address, value in shadow.items():
        assert system.read(address, 8) == value, hex(address)
    system.check_consistency()


class TestJournalPhases:
    def test_quiescent_journal_is_idle(self):
        system, journal, _, _, _ = loaded_system()
        system.drain()
        assert journal.phase is CleanPhase.IDLE

    def test_clean_journals_and_clears(self):
        system, journal, _, _, _ = loaded_system()
        system.store.clean(0)
        assert journal.phase is CleanPhase.IDLE  # cleared on completion

    def test_recover_on_idle_system_is_a_noop(self):
        system, journal, _, shadow, _ = loaded_system()
        assert recover(system, journal) is CleanPhase.IDLE
        verify_all(system, shadow)


class TestCrashDuringClean:
    def crash_clean_at(self, operation, policy="greedy"):
        system, journal, injector, shadow, _ = loaded_system(policy)
        system.drain()
        victim = max(range(8),
                     key=lambda i: system.store.positions[i].dead_slots)
        injector.arm(operation)
        try:
            system.store.clean(victim)
            crashed = False
        except SimulatedPowerFailure:
            crashed = True
        injector.disarm()
        if crashed:
            recover(system, journal)
        verify_all(system, shadow)
        return crashed, journal

    def test_crash_on_first_copy(self):
        crashed, journal = self.crash_clean_at(1)
        assert crashed
        assert journal.phase is CleanPhase.IDLE

    def test_crash_mid_copy(self):
        crashed, _ = self.crash_clean_at(4)
        assert crashed

    def test_crash_on_the_erase(self):
        # The erase is the last operation; find it by counting copies.
        system, journal, injector, shadow, _ = loaded_system()
        system.drain()
        victim = max(range(8),
                     key=lambda i: system.store.positions[i].dead_slots)
        live = system.store.positions[victim].live_count
        injector.arm(live + 1)  # the operation after every copy
        with pytest.raises(SimulatedPowerFailure):
            system.store.clean(victim)
        injector.disarm()
        assert journal.phase is CleanPhase.COMMITTED
        recover(system, journal)
        verify_all(system, shadow)
        # The committed clean stands: the position moved segments.
        assert system.store.positions[victim].phys != \
            system.store.spare_phys

    def test_every_crash_point_in_one_clean(self):
        system, journal, injector, shadow, _ = loaded_system(seed=3)
        system.drain()
        victim = max(range(8),
                     key=lambda i: system.store.positions[i].dead_slots)
        operations = system.store.positions[victim].live_count + 1
        for point in range(1, operations + 1):
            system, journal, injector, shadow, _ = loaded_system(seed=3)
            system.drain()
            injector.arm(point)
            try:
                system.store.clean(victim)
            except SimulatedPowerFailure:
                recover(system, journal)
            injector.disarm()
            verify_all(system, shadow)


class TestCrashDuringTraffic:
    @pytest.mark.parametrize("policy", ["greedy", "fifo", "locality",
                                        "hybrid"])
    def test_random_crashes_never_lose_data(self, policy):
        """Crash at random operations under live write traffic."""
        system, journal, injector, shadow, rng = loaded_system(
            policy=policy, seed=11, writes=400)
        for round_number in range(12):
            injector.arm(rng.randrange(1, 40))
            try:
                for _ in range(300):
                    address = rng.randrange(system.size_bytes - 8) & ~7
                    value = rng.randbytes(8)
                    system.write(address, value)
                    shadow[address] = value
            except SimulatedPowerFailure:
                # The interrupted host write never completed: the model
                # cannot tell how much of it landed, so drop it from the
                # expected state (TPC-A would re-run the transaction).
                shadow.pop(address, None)
                recover(system, journal)
            injector.disarm()
            for check_address in rng.sample(list(shadow), 40):
                assert system.read(check_address, 8) == \
                    shadow[check_address]
        recover(system, journal)
        verify_all(system, shadow)

    def test_interrupted_flush_requeues_page(self):
        system, journal, injector, shadow, _ = loaded_system(writes=0)
        page_bytes = system.config.page_bytes
        # Fill the buffer so the next write must flush.
        for page in range(system.buffer.capacity_pages):
            system.write(page * page_bytes, b"A" * 8)
            shadow[page * page_bytes] = b"A" * 8
        injector.arm(1)  # the flush's first Flash operation
        overflow = system.buffer.capacity_pages * page_bytes
        with pytest.raises(SimulatedPowerFailure):
            system.write(overflow, b"B" * 8)
        injector.disarm()
        recover(system, journal)
        verify_all(system, shadow)
        # The flushed-but-uncommitted page is back in the buffer.
        assert len(system.buffer) == system.buffer.capacity_pages
