"""Cross-feature integration: combinations that must compose cleanly.

Each feature is tested in isolation elsewhere; these tests check the
combinations a downstream user will actually run — the TPC-A database on
the prototype controller, transactions on every cleaning policy,
snapshots of journalled systems, the filesystem under wear degradation,
and so on.
"""

import random

import pytest

from repro.core import (EnvyConfig, EnvySystem, PrototypeController,
                        TpcParams)
from repro.core.chaos import KillSwitch
from repro.core.persistence import roundtrip
from repro.core.recovery import (SimulatedPowerFailure, attach_journal,
                                 recover)
from repro.db import TpcaDatabase
from repro.ext import TransactionManager
from repro.ramdisk import BlockDevice


class TestTpcaOnPrototype:
    def test_database_runs_on_narrow_path(self):
        config = EnvyConfig.scaled(num_segments=16, pages_per_segment=256,
                                   chips_per_bank=8)
        system = PrototypeController(config, critical_word_first=True)
        database = TpcaDatabase(system,
                                TpcParams().scaled_to_accounts(1500))
        database.load(initial_balance=10)
        database.run(400, seed=6)
        database.check_consistency()
        system.check_consistency()

    @pytest.mark.parametrize("policy", ["greedy", "locality", "hybrid"])
    def test_database_on_every_policy(self, policy):
        config = EnvyConfig.small(num_segments=16, pages_per_segment=256,
                                  cleaning_policy=policy)
        system = EnvySystem(config)
        database = TpcaDatabase(system,
                                TpcParams().scaled_to_accounts(1500))
        database.load()
        database.run(400, seed=7)
        database.check_consistency()
        system.check_consistency()


class TestTransactionsEverywhere:
    @pytest.mark.parametrize("policy", ["greedy", "fifo", "locality",
                                        "hybrid"])
    def test_rollback_on_every_policy(self, policy):
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=32,
                                             cleaning_policy=policy))
        system.write(0, b"keep")
        manager = TransactionManager(system)
        txn = manager.transaction()
        txn.write(0, b"lose")
        rng = random.Random(8)
        for _ in range(3000):
            system.write(rng.randrange(64, system.size_bytes - 8),
                         b"x" * 8)
        txn.rollback()
        assert system.read(0, 4) == b"keep"
        system.check_consistency()

    def test_transactions_on_prototype(self):
        config = EnvyConfig.scaled(num_segments=8, pages_per_segment=32,
                                   chips_per_bank=8)
        system = PrototypeController(config)
        manager = TransactionManager(system)
        with manager.transaction() as txn:
            txn.write(10, b"committed via narrow path")
        assert system.read(10, 25) == b"committed via narrow path"


class TestSnapshotsCompose:
    def test_snapshot_of_database_system(self):
        system = EnvySystem(EnvyConfig.small(num_segments=16,
                                             pages_per_segment=256))
        database = TpcaDatabase(system,
                                TpcParams().scaled_to_accounts(1000))
        database.load(initial_balance=5)
        database.run(200, seed=9)
        copy = roundtrip(system)
        # The records are readable directly through the shared layout.
        for account in (0, 500, 999):
            address = database.layout.account_address(account)
            assert copy.read(address, 100) == system.read(address, 100)

    def test_snapshot_after_crash_recovery(self):
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=16))
        journal = attach_journal(system)
        injector = KillSwitch(system.array)
        rng = random.Random(10)
        system.write(0, b"anchor!!")
        injector.arm(5)
        try:
            for _ in range(2000):
                system.write(rng.randrange(8, system.size_bytes - 8),
                             b"y" * 8)
        except SimulatedPowerFailure:
            recover(system, journal)
        injector.disarm()
        copy = roundtrip(system)
        assert copy.read(0, 8) == b"anchor!!"
        copy.check_consistency()


class TestBlockDeviceUnderStress:
    def test_block_device_survives_crashes(self):
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=64))
        journal = attach_journal(system)
        injector = KillSwitch(system.array)
        device = BlockDevice(system, block_bytes=512)
        stable = b"written before any crash".ljust(512, b"\x00")
        device.write_block(0, stable)
        system.drain()
        injector.arm(3)
        crashed = False
        try:
            for index in range(60):
                device.write_block(1 + index, bytes([index]) * 512)
        except SimulatedPowerFailure:
            crashed = True
            recover(system, journal)
        injector.disarm()
        assert crashed
        assert BlockDevice(system, block_bytes=512).read_block(0) == stable
