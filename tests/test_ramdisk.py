"""Tests for the RAM-disk block device on eNVy."""

import pytest

from repro.core import EnvyConfig, EnvySystem
from repro.ramdisk import BlockDevice, BlockDeviceError


def make_system():
    return EnvySystem(EnvyConfig.small(num_segments=8,
                                       pages_per_segment=64))


@pytest.fixture
def device():
    return BlockDevice(make_system(), block_bytes=512)


class TestBlockDevice:
    def test_geometry_from_memory_size(self, device):
        assert device.num_blocks == device.memory.size_bytes // 512
        assert device.size_bytes <= device.memory.size_bytes

    def test_block_round_trip(self, device):
        payload = bytes(range(256)) * 2
        device.write_block(3, payload)
        assert device.read_block(3) == payload

    def test_blocks_are_independent(self, device):
        device.write_block(0, b"\x11" * 512)
        device.write_block(1, b"\x22" * 512)
        assert device.read_block(0) == b"\x11" * 512

    def test_wrong_size_write_rejected(self, device):
        with pytest.raises(BlockDeviceError):
            device.write_block(0, b"short")

    def test_out_of_range_block(self, device):
        with pytest.raises(BlockDeviceError):
            device.read_block(device.num_blocks)

    def test_partial_update_read_modify_write(self, device):
        device.write_block(2, b"\xAA" * 512)
        reads_before = device.reads
        device.update_bytes(2, 100, b"\x55\x55")
        assert device.reads == reads_before + 1  # the forced read
        sector = device.read_block(2)
        assert sector[99:103] == b"\xAA\x55\x55\xAA"

    def test_update_overflow_rejected(self, device):
        with pytest.raises(BlockDeviceError):
            device.update_bytes(0, 510, b"abc")

    def test_offset_carves_region(self):
        system = make_system()
        device = BlockDevice(system, block_bytes=512, offset=4096,
                             num_blocks=4)
        device.write_block(0, b"\x7F" * 512)
        assert system.read(4096, 4) == b"\x7F" * 4
        assert system.read(0, 4) == bytes(4)

    def test_sectors_survive_power_cycle_and_reopen(self, device):
        sector = b"through the outage".ljust(512, b".")
        device.write_block(3, sector)
        device.memory.power_cycle()
        reopened = BlockDevice(device.memory, block_bytes=512)
        assert reopened.read_block(3) == sector
        assert reopened.read_block(4) == bytes(512)


class TestBlockDeviceCostModel:
    """Block-device ops are charged through the timing model (PR-10)."""

    def test_reads_charge_memory_time(self, device):
        _, ns = device.read_block_timed(0)
        assert ns > 0
        assert device.read_ns == ns
        _, again = device.read_block_timed(0)
        assert device.read_ns == ns + again

    def test_writes_charge_memory_time(self, device):
        ns = device.write_block_timed(0, b"\x01" * 512)
        assert ns > 0
        assert device.write_ns == ns

    def test_untimed_memory_falls_back_to_dram_rates(self):
        from repro.core.costmodel import DRAM_READ_NS, DRAM_WRITE_NS

        class RawMemory:
            size_bytes = 4096

            def read(self, address, length):
                return bytes(length)

            def write(self, address, data):
                return None  # no timing information

        device = BlockDevice(RawMemory(), block_bytes=512)
        _, read_ns = device.read_block_timed(1)
        assert read_ns == DRAM_READ_NS
        assert device.write_block_timed(1, bytes(512)) == DRAM_WRITE_NS

    def test_update_bytes_returns_rmw_time(self, device):
        ns = device.update_bytes(2, 100, b"\x55\x55")
        assert ns == device.read_ns + device.write_ns

    def test_stats_snapshot(self, device):
        device.write_block(0, bytes(512))
        device.read_block(0)
        stats = device.stats()
        assert stats["reads"] == 1
        assert stats["writes"] == 1
        assert stats["read_ns"] > 0
        assert stats["write_ns"] > 0
        assert stats["block_bytes"] == 512

    def test_counters_surface_in_health_report(self):
        system = make_system()
        device = BlockDevice(system, block_bytes=512)
        device.write_block(0, b"\x42" * 512)
        device.read_block(0)
        health = system.health_report()
        assert health["blockdev0_writes"] == 1
        assert health["blockdev0_reads"] == 1
        assert health["blockdev0_write_ns"] > 0
        assert health["blockdev0_read_ns"] > 0

    def test_two_devices_report_separately(self):
        system = make_system()
        a = BlockDevice(system, block_bytes=512, offset=0, num_blocks=4)
        b = BlockDevice(system, block_bytes=512, offset=2048,
                        num_blocks=4)
        a.write_block(0, bytes(512))
        b.read_block(0)
        health = system.health_report()
        assert health["blockdev0_writes"] == 1
        assert health["blockdev1_reads"] == 1
