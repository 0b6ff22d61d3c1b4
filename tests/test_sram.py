"""Tests for the SRAM substrate: write buffer, page table, MMU."""

import pytest

from repro.core import EnvyConfig
from repro.sram import (BufferFullError, Location, Mmu, PageTable,
                        WriteBuffer)


class TestWriteBufferFifo:
    def test_insert_then_pop_is_fifo(self):
        buf = WriteBuffer(capacity_pages=4)
        buf.insert(10, bytearray(4), origin=0)
        buf.insert(20, bytearray(4), origin=1)
        buf.insert(30, bytearray(4), origin=2)
        assert buf.pop_tail().logical_page == 10
        assert buf.pop_tail().logical_page == 20

    def test_rewrite_does_not_change_fifo_order(self):
        # Section 3.2: changes to a buffered page are made directly in
        # SRAM; the page keeps its position in the FIFO.
        buf = WriteBuffer(capacity_pages=4)
        buf.insert(10, bytearray(4), origin=0)
        buf.insert(20, bytearray(4), origin=0)
        entry = buf.peek(10)
        entry.data[0] = 0xAA
        assert buf.pop_tail().logical_page == 10

    def test_duplicate_insert_rejected(self):
        buf = WriteBuffer(capacity_pages=4)
        buf.insert(10, bytearray(4), origin=0)
        with pytest.raises(ValueError):
            buf.insert(10, bytearray(4), origin=0)

    def test_insert_into_full_buffer(self):
        buf = WriteBuffer(capacity_pages=2)
        buf.insert(1, None, origin=0)
        buf.insert(2, None, origin=0)
        with pytest.raises(BufferFullError):
            buf.insert(3, None, origin=0)

    def test_pop_empty_buffer(self):
        buf = WriteBuffer(capacity_pages=2)
        with pytest.raises(BufferFullError):
            buf.pop_tail()

    def test_remove_specific_page(self):
        buf = WriteBuffer(capacity_pages=4)
        buf.insert(1, None, origin=0)
        buf.insert(2, None, origin=0)
        assert buf.remove(1).logical_page == 1
        assert 1 not in buf
        with pytest.raises(KeyError):
            buf.remove(1)


class TestWriteBufferThreshold:
    def test_threshold_crossing(self):
        buf = WriteBuffer(capacity_pages=10, flush_threshold=0.5)
        for page in range(5):
            buf.insert(page, None, origin=0)
        assert not buf.over_threshold
        buf.insert(5, None, origin=0)
        assert buf.over_threshold

    def test_threshold_of_one(self):
        buf = WriteBuffer(capacity_pages=1, flush_threshold=1.0)
        assert buf.threshold_pages == 1

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity_pages=4, flush_threshold=0.0)


class TestWriteBufferStats:
    def test_origin_recorded_for_flush_back(self):
        buf = WriteBuffer(capacity_pages=4)
        buf.insert(99, None, origin=7)
        assert buf.pop_tail().origin == 7

    def test_entries_iterate_oldest_first(self):
        buf = WriteBuffer(capacity_pages=4)
        for page in (3, 1, 2):
            buf.insert(page, None, origin=0)
        assert [e.logical_page for e in buf.entries()] == [3, 1, 2]


class TestPowerFailure:
    def test_battery_backed_survives(self):
        buf = WriteBuffer(capacity_pages=4, battery_backed=True)
        buf.insert(1, bytearray(b"data"), origin=0)
        buf.power_cycle()
        assert 1 in buf

    def test_volatile_buffer_loses_data(self):
        buf = WriteBuffer(capacity_pages=4, battery_backed=False)
        buf.insert(1, bytearray(b"data"), origin=0)
        buf.power_cycle()
        assert 1 not in buf

    def test_power_cycle_resets_counters_keeps_battery_data(self):
        buf = WriteBuffer(capacity_pages=4, battery_backed=True)
        buf.insert(1, None, origin=0)
        buf.insert(2, None, origin=0)
        buf.pop_tail()
        buf.power_cycle()
        assert (buf.total_inserts, buf.total_flushes) == (0, 0)
        assert len(buf) == 1   # battery preserved the remaining entry


class TestLocation:
    def test_flash_location(self):
        loc = Location.flash(3, 17)
        assert loc.in_flash and not loc.in_sram
        assert loc[1:] == (3, 17)

    def test_sram_location(self):
        loc = Location.sram(5)
        assert loc.in_sram
        assert loc.slot == 5

    def test_flash_location_has_no_slot(self):
        with pytest.raises(ValueError):
            _ = Location.flash(0, 0).slot

    def test_locations_compare_as_tuples(self):
        assert Location.flash(1, 2) == Location.flash(1, 2)
        assert Location.flash(1, 2) != Location.sram(1)


class TestPageTable:
    def test_unmapped_lookup(self):
        table = PageTable(8)
        assert table.lookup(0) is None

    def test_update_and_lookup(self):
        table = PageTable(8)
        table.update(3, Location.flash(1, 2))
        assert table.lookup(3) == Location.flash(1, 2)

    def test_out_of_range(self):
        table = PageTable(8)
        with pytest.raises(IndexError):
            table.lookup(8)
        with pytest.raises(IndexError):
            table.update(-1, Location.sram(0))

    def test_sram_cost_is_six_bytes_per_page(self):
        # Section 3.3: a mapping requires 6 bytes, one per physical page.
        config = EnvyConfig.small(num_segments=8, pages_per_segment=125)
        assert config.page_table_bytes == 6000


class TestMmu:
    def test_miss_then_hit(self):
        table = PageTable(8)
        table.update(2, Location.flash(0, 1))
        mmu = Mmu(table, capacity=4)
        loc, cost = mmu.translate_timed(2)
        assert loc == Location.flash(0, 1)
        assert cost == table.read_ns
        loc, cost = mmu.translate_timed(2)
        assert cost == 0
        assert mmu.hits == 1 and mmu.misses == 1

    def test_lru_eviction(self):
        table = PageTable(8)
        for page in range(4):
            table.update(page, Location.flash(0, page))
        mmu = Mmu(table, capacity=2)
        mmu.translate_timed(0)
        mmu.translate_timed(1)
        mmu.translate_timed(2)  # evicts 0
        _, cost = mmu.translate_timed(0)
        assert cost == table.read_ns

    def test_update_writes_through(self):
        table = PageTable(8)
        table.update(1, Location.flash(0, 0))
        mmu = Mmu(table, capacity=4)
        mmu.translate_timed(1)
        mmu.update(1, Location.sram(3))
        assert table.lookup(1) == Location.sram(3)
        loc, cost = mmu.translate_timed(1)
        assert loc == Location.sram(3)
        assert cost == 0  # still cached, coherently updated

    def test_unmapped_pages_not_cached(self):
        table = PageTable(8)
        mmu = Mmu(table, capacity=4)
        assert mmu.translate_timed(5)[0] is None
        assert mmu.translate_timed(5)[0] is None
        assert mmu.misses == 2

    def test_flush_clears_cache(self):
        table = PageTable(8)
        table.update(0, Location.flash(0, 0))
        mmu = Mmu(table, capacity=4)
        mmu.translate_timed(0)
        mmu.flush()
        _, cost = mmu.translate_timed(0)
        assert cost == table.read_ns

    def test_hit_rate(self):
        table = PageTable(8)
        table.update(0, Location.flash(0, 0))
        mmu = Mmu(table, capacity=4)
        mmu.translate_timed(0)
        mmu.translate_timed(0)
        assert mmu.hit_rate() == pytest.approx(0.5)
