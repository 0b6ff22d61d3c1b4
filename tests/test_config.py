"""Tests for configuration objects against Figure 12's parameters."""

import dataclasses

import pytest

from repro.core.config import (GIB, MIB, EnvyConfig, FlashParams, SramParams,
                               TpcParams)


class TestFlashParams:
    def test_paper_array_is_two_gigabytes(self):
        assert FlashParams().array_bytes == 2 * GIB

    def test_paper_chip_count(self):
        assert FlashParams().num_chips == 2048

    def test_paper_segment_is_sixteen_megabytes(self):
        # Figure 4 / Section 3.4: one erase block (64 KB) x 256 chips.
        assert FlashParams().segment_bytes == 16 * MIB

    def test_paper_has_128_segments(self):
        # Section 5.1: "128 individually erasable segments".
        assert FlashParams().num_segments == 128

    def test_erase_block_is_64k(self):
        assert FlashParams().erase_block_bytes == 64 * 1024

    def test_segments_per_bank_matches_blocks_per_chip(self):
        p = FlashParams()
        assert p.segments_per_bank == p.erase_blocks_per_chip == 16

    def test_timing_defaults_match_figure_12(self):
        p = FlashParams()
        assert p.read_ns == 100
        assert p.write_ns == 100
        assert p.program_ns == 4000
        assert p.erase_ns == 50_000_000

    def test_validate_rejects_nondividing_blocks(self):
        p = dataclasses.replace(FlashParams(), erase_blocks_per_chip=3)
        with pytest.raises(ValueError):
            p.validate()

    def test_validate_rejects_nonpositive_fields(self):
        p = dataclasses.replace(FlashParams(), program_ns=0)
        with pytest.raises(ValueError):
            p.validate()


class TestSramParams:
    def test_paper_buffer_is_one_segment(self):
        # Section 5.1: "The buffer size is chosen to be the size of one
        # segment" (16 MB).
        assert SramParams().buffer_bytes == FlashParams().segment_bytes

    def test_validate_rejects_empty_buffer(self):
        with pytest.raises(ValueError):
            SramParams(buffer_bytes=0).validate()


class TestTpcParams:
    def test_paper_scale_counts(self):
        t = TpcParams()
        assert t.num_accounts == 15_500_000
        assert t.num_branches == 155
        assert t.num_tellers == 1550

    def test_index_levels_match_figure_12(self):
        # Figure 12: 2 levels for branches, 3 for tellers, 5 for accounts.
        t = TpcParams()
        assert t.index_levels(t.num_branches) == 2
        assert t.index_levels(t.num_tellers) == 3
        assert t.index_levels(t.num_accounts) == 5

    def test_index_levels_boundaries(self):
        t = TpcParams()
        assert t.index_levels(1) == 1
        assert t.index_levels(32) == 1
        assert t.index_levels(33) == 2
        assert t.index_levels(32 * 32) == 2
        assert t.index_levels(32 * 32 + 1) == 3

    def test_scaled_to_accounts_preserves_ratios(self):
        t = TpcParams().scaled_to_accounts(1_000_000)
        assert t.num_accounts == 1_000_000
        assert t.num_branches == 10
        assert t.num_tellers == 100


class TestEnvyConfig:
    def test_paper_page_geometry(self):
        c = EnvyConfig.paper()
        assert c.page_bytes == 256
        assert c.pages_per_segment == 65536
        assert c.total_pages == 8 * 1024 * 1024

    def test_page_table_sram_matches_section_3_3(self):
        # "For every gigabyte of Flash, 24 MBytes of SRAM is required for
        # the page table" -> 48 MiB for the 2 GiB system.
        assert EnvyConfig.paper().page_table_bytes == 48 * MIB

    def test_logical_space_is_80_percent(self):
        c = EnvyConfig.paper()
        assert c.logical_pages == int(c.total_pages * 0.8)

    def test_buffer_holds_one_segment_of_pages(self):
        c = EnvyConfig.paper()
        assert c.buffer_pages == c.pages_per_segment

    def test_validate_accepts_paper_config(self):
        EnvyConfig.paper().validate()

    def test_validate_rejects_bad_utilization(self):
        c = dataclasses.replace(EnvyConfig.paper(), max_utilization=1.5)
        with pytest.raises(ValueError):
            c.validate()

    def test_validate_rejects_partition_mismatch(self):
        c = dataclasses.replace(EnvyConfig.paper(), partition_segments=23)
        with pytest.raises(ValueError):
            c.validate()

    def test_small_config_validates(self):
        c = EnvyConfig.small()
        c.validate()
        assert c.flash.num_segments == 32
        assert c.pages_per_segment == 256

    def test_scaled_erase_time_preserves_ratio(self):
        paper = EnvyConfig.paper()
        small = EnvyConfig.small(num_segments=32, pages_per_segment=256)
        paper_ratio = paper.flash.erase_ns / (
            paper.pages_per_segment * paper.flash.program_ns)
        small_ratio = small.flash.erase_ns / (
            small.pages_per_segment * small.flash.program_ns)
        assert small_ratio == pytest.approx(paper_ratio, rel=0.01)

    def test_scaled_buffer_is_one_segment(self):
        c = EnvyConfig.small(num_segments=32, pages_per_segment=128)
        assert c.buffer_pages == 128

    def test_scaled_rejects_odd_segment_count(self):
        with pytest.raises(ValueError):
            EnvyConfig.scaled(num_segments=31)
