"""Tests for the Section 8 prototype's narrow data path."""

import random

import pytest

from repro.core import (EnvyConfig, PrototypeController, narrow_path_timings,
                        prototype_config)


class TestPrototypeConfig:
    def test_geometry_is_128_mb_one_bank(self):
        config = prototype_config()
        assert config.flash.array_bytes == 128 * (1 << 20)
        assert config.flash.num_banks == 1
        assert config.flash.chips_per_bank == 32

    def test_partitions_still_divide(self):
        prototype_config().validate()

    def test_rejects_nondividing_chip_count(self):
        with pytest.raises(ValueError):
            prototype_config(chips=7)


class TestNarrowPathTimings:
    def test_beats_per_page(self):
        timings = narrow_path_timings(prototype_config(chips=32))
        assert timings.transfer_width_bytes == 32
        assert timings.beats_per_page == 8

    def test_wide_path_is_single_beat(self):
        timings = narrow_path_timings(EnvyConfig.paper())
        assert timings.beats_per_page == 1
        assert timings.write_full_copy_ns == timings.write_critical_word_ns

    def test_full_copy_scales_with_beats(self):
        narrow = narrow_path_timings(prototype_config(chips=16))
        narrower = narrow_path_timings(prototype_config(chips=8))
        assert narrower.write_full_copy_ns > narrow.write_full_copy_ns

    def test_critical_word_independent_of_width(self):
        a = narrow_path_timings(prototype_config(chips=8))
        b = narrow_path_timings(prototype_config(chips=32))
        assert a.write_critical_word_ns == b.write_critical_word_ns

    def test_reads_unaffected(self):
        timings = narrow_path_timings(prototype_config(chips=8))
        assert timings.read_ns == 160

    def test_flush_total_includes_program(self):
        timings = narrow_path_timings(prototype_config(chips=32))
        assert timings.flush_total_ns == timings.flush_transfer_ns + 4000


class TestPrototypeController:
    def small(self, **kwargs):
        # A shrunken prototype: 8-byte-wide path over a tiny array.
        config = EnvyConfig.scaled(num_segments=8, pages_per_segment=32,
                                   chips_per_bank=8)
        return PrototypeController(config, **kwargs)

    def test_full_copy_write_latency(self):
        system = self.small(critical_word_first=False)
        system.read(0, 1)  # warm MMU
        ns = system.write(0, b"x")
        # 60 bus + 32 beats x 100 + 100 sram = 3360.
        assert ns == 60 + 32 * 100 + 100

    def test_critical_word_first_hides_beats(self):
        system = self.small(critical_word_first=True)
        system.read(0, 1)
        ns = system.write(0, b"x")
        assert ns == 260  # the wide-path number

    def test_buffered_writes_unaffected(self):
        system = self.small(critical_word_first=False)
        system.write(0, b"x")
        assert system.write(1, b"y") == 160

    def test_flush_charges_transfer_time(self):
        system = self.small(critical_word_first=True)
        rng = random.Random(0)
        for _ in range(2000):
            system.write(rng.randrange(system.size_bytes - 8), b"ab")
        per_flush = (system.metrics.busy_ns["flush"]
                     / system.metrics.flushes)
        timings = system.timings
        assert per_flush == pytest.approx(
            system.config.flash.program_ns + timings.flush_transfer_ns)

    def test_data_integrity_on_narrow_path(self):
        system = self.small()
        rng = random.Random(4)
        shadow = {}
        for _ in range(2500):
            address = rng.randrange(system.size_bytes - 8) & ~7
            value = rng.randrange(2 ** 32).to_bytes(8, "little")
            system.write(address, value)
            shadow[address] = value
        for address, value in shadow.items():
            assert system.read(address, 8) == value
        system.check_consistency()

    def test_default_config_is_the_prototype(self):
        system = PrototypeController(store_data=False)
        assert system.config.flash.array_bytes == 128 * (1 << 20)
