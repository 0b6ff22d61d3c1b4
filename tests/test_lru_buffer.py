"""Tests for the write buffer's eviction order and bookkeeping
(repro.sram.buffer).

The paper's buffer is strictly FIFO: looking a page up leaves eviction
order alone, and only a remove-and-reinsert moves a page to the head.
The "more complex management scheme" the paper rejected is measured by
``PolicySimulator(buffer_policy="lru")``, not by a second buffer class.
"""

import pytest

from repro.sram import BufferFullError, WriteBuffer


def fill(buf, pages):
    for page in pages:
        buf.insert(page, bytearray(buf.page_bytes), origin=0)


def oldest(buf):
    return next(buf.entries()).logical_page


class TestFifoOrder:
    def test_get_does_not_disturb_eviction_order(self):
        buf = WriteBuffer(capacity_pages=4)
        fill(buf, [1, 2, 3])
        buf.peek(1)
        buf.peek(1)
        assert buf.pop_tail().logical_page == 1

    def test_remove_then_reinsert_moves_to_head(self):
        buf = WriteBuffer(capacity_pages=4)
        fill(buf, [1, 2, 3])
        buf.remove(2)
        buf.insert(2, bytearray(buf.page_bytes), origin=0)
        assert [e.logical_page for e in buf.entries()] == [1, 3, 2]
        assert buf.pop_tail().logical_page == 1

    def test_tail_with_mixed_inserts_and_removes(self):
        buf = WriteBuffer(capacity_pages=8)
        fill(buf, [5, 6, 7, 8])
        buf.remove(5)          # oldest leaves: 6 becomes the tail
        assert oldest(buf) == 6
        buf.remove(7)          # middle removal cannot change the tail
        assert oldest(buf) == 6
        assert [e.logical_page for e in buf.entries()] == [6, 8]
        assert buf.pop_tail().logical_page == 6


class TestCapacityAndErrors:
    @pytest.mark.parametrize("cls", [WriteBuffer])
    def test_insert_into_full_buffer_raises(self, cls):
        buf = cls(capacity_pages=2)
        fill(buf, [1, 2])
        assert buf.is_full
        with pytest.raises(BufferFullError):
            buf.insert(3, bytearray(buf.page_bytes), origin=0)

    def test_duplicate_insert_raises(self):
        buf = WriteBuffer(capacity_pages=2)
        fill(buf, [1])
        with pytest.raises(ValueError):
            buf.insert(1, bytearray(buf.page_bytes), origin=0)

    def test_pop_tail_on_empty_raises(self):
        with pytest.raises(BufferFullError):
            WriteBuffer(capacity_pages=2).pop_tail()

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            WriteBuffer(capacity_pages=2).remove(9)


class TestCountersAndPowerCycle:
    def test_power_cycle_without_battery_loses_contents(self):
        buf = WriteBuffer(capacity_pages=4, battery_backed=False)
        fill(buf, [1, 2])
        buf.power_cycle()
        assert len(buf) == 0 and buf.total_inserts == 0
