"""Tests for the full Flash array: banks of wide segments."""

import pytest

from repro.core.config import FlashParams
from repro.flash import AddressError, FlashArray


@pytest.fixture
def array():
    params = FlashParams(chip_bytes=4096, chips_per_bank=4, num_banks=2,
                         erase_blocks_per_chip=4)
    return FlashArray(params, page_bytes=256)


class TestArray:
    def test_geometry(self, array):
        # 4 KB chips x 4 chips = 16 KB/bank, 4 blocks -> 4 KB segments.
        assert array.num_segments == 8
        assert array.pages_per_segment == 16
        assert array.total_pages == 128

    def test_physical_address_round_trip(self, array):
        for phys in (0, 17, 127):
            seg, page = array.split_physical(phys)
            assert array.join_physical(seg, page) == phys

    def test_split_out_of_range(self, array):
        with pytest.raises(AddressError):
            array.split_physical(128)

    def test_bank_of(self, array):
        assert array.bank_of(0) == 0
        assert array.bank_of(3) == 0
        assert array.bank_of(4) == 1
        with pytest.raises(AddressError):
            array.bank_of(8)

    def test_program_returns_page_and_time(self, array):
        page, time_ns = array.program_page(0, bytes(256))
        assert page == 0
        assert time_ns == array.params.program_ns

    def test_read_back_through_array(self, array):
        data = bytes(range(256))
        array.program_page(3, data)
        assert array.read_page(3, 0) == data

    def test_erase_segment_timing(self, array):
        assert array.erase_segment(0) == array.params.erase_ns

    def test_utilization_and_live_pages(self, array):
        assert array.utilization() == 0.0
        array.program_page(0, bytes(256))
        array.program_page(0, bytes(256))
        array.invalidate_page(0, 0)
        assert array.live_pages() == 1
        assert array.utilization() == pytest.approx(1 / 128)

    def test_erased_segments(self, array):
        assert array.erased_segments() == list(range(8))
        array.program_page(2, bytes(256))
        assert 2 not in array.erased_segments()

    def test_wear_stats(self, array):
        array.erase_segment(0)
        array.erase_segment(0)
        array.erase_segment(1)
        stats = array.wear_stats()
        assert stats.erase_counts[:3] == [2, 1, 0]
        assert stats.spread == 2
        assert stats.total_erases == 3

    def test_wear_remaining_fraction(self, array):
        stats = array.wear_stats()
        assert stats.remaining_fraction == 1.0
        array.erase_segment(0)
        stats = array.wear_stats()
        assert 0.0 < stats.remaining_fraction < 1.0

    def test_page_size_must_divide_segment(self):
        params = FlashParams(chip_bytes=4096, chips_per_bank=4, num_banks=1,
                             erase_blocks_per_chip=4)
        with pytest.raises(ValueError):
            FlashArray(params, page_bytes=3000)

    def test_stateless_array_stores_no_data(self):
        params = FlashParams(chip_bytes=4096, chips_per_bank=4, num_banks=1,
                             erase_blocks_per_chip=4)
        array = FlashArray(params, page_bytes=256, store_data=False)
        array.program_page(0)
        assert array.read_page(0, 0) is None
