"""Tests for segment page-state bookkeeping (write-once, bulk-erase)."""

import pytest

from repro.flash import (AddressError, EraseError, FlashSegment, PageState,
                         ProgramError)


@pytest.fixture
def seg():
    return FlashSegment(segment_id=3, num_pages=8, page_bytes=4)


class TestProgramOrder:
    def test_pages_program_sequentially(self, seg):
        assert seg.program_page(b"aaaa") == 0
        assert seg.program_page(b"bbbb") == 1
        assert seg.write_pointer == 2

    def test_program_full_segment_raises(self, seg):
        for _ in range(8):
            seg.program_page(b"xxxx")
        with pytest.raises(ProgramError):
            seg.program_page(b"yyyy")

    def test_program_checks_page_size(self, seg):
        with pytest.raises(ValueError):
            seg.program_page(b"too long for four bytes")

    def test_stateless_mode_skips_data(self):
        seg = FlashSegment(0, 4, store_data=False)
        seg.program_page()
        assert seg.read_page(0) is None


class TestStates:
    def test_fresh_segment_is_erased(self, seg):
        assert seg.is_erased
        assert seg.free_pages == 8
        assert seg.live_count == 0

    def test_program_makes_valid(self, seg):
        seg.program_page(b"aaaa")
        assert seg.states[0] is PageState.VALID
        assert seg.live_count == 1

    def test_invalidate(self, seg):
        seg.program_page(b"aaaa")
        seg.invalidate_page(0)
        assert seg.states[0] is PageState.INVALID
        assert seg.live_count == 0
        assert seg.invalid_pages == 1

    def test_cannot_invalidate_twice(self, seg):
        seg.program_page(b"aaaa")
        seg.invalidate_page(0)
        with pytest.raises(ProgramError):
            seg.invalidate_page(0)

    def test_cannot_invalidate_erased(self, seg):
        with pytest.raises(ProgramError):
            seg.invalidate_page(5)


class TestReads:
    def test_read_back(self, seg):
        seg.program_page(b"abcd")
        assert seg.read_page(0) == b"abcd"

    def test_read_erased_page_raises(self, seg):
        with pytest.raises(AddressError):
            seg.read_page(0)

    def test_read_invalid_page_still_works(self, seg):
        # Section 2: superseded data remains readable until the erase;
        # the transaction extension (Section 6) relies on this.
        seg.program_page(b"abcd")
        seg.invalidate_page(0)
        assert seg.read_page(0) == b"abcd"

    def test_read_out_of_range(self, seg):
        with pytest.raises(AddressError):
            seg.read_page(8)


class TestErase:
    def test_erase_resets_everything(self, seg):
        seg.program_page(b"aaaa")
        seg.invalidate_page(0)
        seg.erase()
        assert seg.is_erased
        assert seg.erase_count == 1
        assert seg.states[0] is PageState.ERASED

    def test_erase_with_live_data_refused(self, seg):
        seg.program_page(b"aaaa")
        with pytest.raises(EraseError):
            seg.erase()

    def test_program_during_erase_refused(self, seg):
        seg.begin_erase()
        with pytest.raises(EraseError):
            seg.program_page(b"aaaa")
        seg.finish_erase()
        seg.program_page(b"aaaa")

    def test_read_during_erase_refused(self, seg):
        seg.program_page(b"aaaa")
        seg.invalidate_page(0)
        seg.begin_erase()
        with pytest.raises(EraseError):
            seg.read_page(0)

    def test_double_begin_erase(self, seg):
        seg.begin_erase()
        with pytest.raises(EraseError):
            seg.begin_erase()

    def test_finish_without_begin(self, seg):
        with pytest.raises(EraseError):
            seg.finish_erase()

    def test_erase_count_accumulates(self, seg):
        for _ in range(3):
            seg.erase()
        assert seg.erase_count == 3

    def test_program_count_survives_erase(self, seg):
        seg.program_page(b"aaaa")
        seg.invalidate_page(0)
        seg.erase()
        assert seg.program_count == 1
