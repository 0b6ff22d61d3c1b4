"""Power failures composed with device faults.

Section 3.4's crash-safety argument (shadow paging + the battery-backed
cleaning journal) must keep holding when the devices themselves
misbehave: a clean whose erase also suffers transient failures — each
retry is a separate Flash-visible attempt — or fails permanently and
triggers bad-block retirement, can still lose power at any operation
and recover with every committed byte intact.
"""

import dataclasses
import random

import pytest

from repro.core import EnvyConfig, EnvySystem
from repro.core.chaos import KillSwitch
from repro.core.recovery import (SimulatedPowerFailure, attach_journal,
                                 recover)
from repro.faults import FaultPlan

#: Erases fail transiently 60% of the time; the generous retry budget
#: makes eventual success certain in practice (0.6^40 ~ 1e-9).
FLAKY_ERASES = FaultPlan(seed=13, transient_erase_rate=0.6)


def loaded_system(plan, seed=3, writes=1500, **config_overrides):
    system = EnvySystem(EnvyConfig.small(
        num_segments=8, pages_per_segment=16, cleaning_policy="greedy",
        fault_plan=plan, reserve_segments=2, erase_retries=40,
        **config_overrides))
    journal = attach_journal(system)
    injector = KillSwitch(system.array)
    rng = random.Random(seed)
    shadow = {}
    for _ in range(writes):
        address = rng.randrange(system.size_bytes - 8) & ~7
        value = rng.randbytes(8)
        system.write(address, value)
        shadow[address] = value
    return system, journal, injector, shadow


def verify_all(system, shadow):
    for address, value in shadow.items():
        assert system.read(address, 8) == value, hex(address)
    system.check_consistency()


def dirtiest_position(system):
    return max(range(8),
               key=lambda i: system.store.positions[i].dead_slots)


class TestCrashEveryPointUnderFlakyErases:
    def test_every_crash_point_with_transient_erase_failures(self):
        """Cut power at each Flash operation of a fault-afflicted clean.

        The kill switch counts outer program/erase calls, so the final
        point covers the erase — including its retry storm.
        """
        probe, _, _, _ = loaded_system(FLAKY_ERASES)
        probe.drain()
        victim = dirtiest_position(probe)
        operations = probe.store.positions[victim].live_count + 1
        saw_erase_retry = False
        for point in range(1, operations + 1):
            system, journal, injector, shadow = loaded_system(FLAKY_ERASES)
            system.drain()
            injector.arm(point)
            try:
                system.store.clean(victim)
            except SimulatedPowerFailure:
                recover(system, journal)
            injector.disarm()
            verify_all(system, shadow)
            saw_erase_retry |= \
                system.array.fault_stats.erase_retries > 0
        # The fault schedule really did afflict these cleans.
        assert saw_erase_retry

    def test_crash_then_recovery_erase_also_faulty(self):
        """The erase replayed *by recovery* hits transients too."""
        system, journal, injector, shadow = loaded_system(FLAKY_ERASES)
        system.drain()
        victim = dirtiest_position(system)
        live = system.store.positions[victim].live_count
        injector.arm(live + 1)  # the erase, after every survivor copy
        with pytest.raises(SimulatedPowerFailure):
            system.store.clean(victim)
        injector.disarm()
        before = system.array.fault_stats.erase_retries
        recover(system, journal)
        verify_all(system, shadow)
        # Recovery's erase consulted the injector like any other.
        assert system.array.fault_stats.erase_retries >= before


class TestCrashWithRetirement:
    def test_crash_at_erase_that_fails_permanently(self):
        """Power loss at an erase that, on replay, retires the block.

        Recovery replays the outstanding erase through the retirement
        path: the dead segment leaves the rotation, a reserve becomes
        the spare, and no committed data is touched.
        """
        from repro.faults import FaultInjector, secded_for

        system, journal, injector, shadow = loaded_system(FLAKY_ERASES)
        system.drain()
        # From here on, every erase fails permanently: the erase this
        # clean leaves outstanding will retire its block during recovery.
        doomed = FaultInjector(FaultPlan(seed=5, permanent_erase_rate=1.0))
        system.array.attach_faults(
            injector=doomed, ecc=secded_for(system.config.page_bytes),
            erase_retries=40, op_observer=system._on_fault_op)
        system.fault_injector = doomed
        victim = dirtiest_position(system)
        live = system.store.positions[victim].live_count
        injector.arm(live + 1)
        with pytest.raises(SimulatedPowerFailure):
            system.store.clean(victim)
        injector.disarm()
        recover(system, journal)
        verify_all(system, shadow)
        report = system.health_report()
        assert report["bad_blocks_retired"] == 1
        assert report["reserves_remaining"] == 1
        assert system.store.spare_phys not in report["retired_segments"]

    def test_random_crashes_under_faults_never_lose_data(self):
        """Live traffic + random power cuts + transient faults."""
        plan = dataclasses.replace(FLAKY_ERASES, transient_erase_rate=0.3,
                                   transient_program_rate=0.01,
                                   read_flip_rate=1e-6)
        system, journal, injector, shadow = loaded_system(
            plan, seed=11, writes=400)
        rng = random.Random(17)
        for _ in range(10):
            injector.arm(rng.randrange(1, 40))
            address = None
            try:
                for _ in range(300):
                    address = rng.randrange(system.size_bytes - 8) & ~7
                    value = rng.randbytes(8)
                    system.write(address, value)
                    shadow[address] = value
            except SimulatedPowerFailure:
                # The interrupted write never completed; TPC-A would
                # re-run the transaction, so drop it from the oracle.
                shadow.pop(address, None)
                recover(system, journal)
            injector.disarm()
        recover(system, journal)
        verify_all(system, shadow)
        report = system.health_report()
        assert report["silent_corrupt_reads"] == 0
        assert report["ecc_uncorrectable_reads"] == 0
