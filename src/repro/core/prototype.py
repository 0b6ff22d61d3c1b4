"""The 128 MB prototype's narrow data path (Section 8).

"Implementation of a 128 Mbyte prototype is planned using an SBUS
interface and a SparcStation host.  The system will have too few chips
to transfer an entire page in a single memory cycle, so techniques will
be tested that can maintain reasonable performance levels even with a
lower transfer rate."

The full-scale system moves a 256-byte page in one cycle because a bank
is 256 chips wide.  With fewer chips the page moves in
``page_bytes / transfer_width`` beats, which inflates exactly two
operations: the copy-on-write's Flash-to-SRAM page copy (host-visible
write latency) and the SRAM-to-Flash transfer that precedes each page
program (flush bandwidth).  This module provides the narrow-path
configuration and the latency/bandwidth model, plus the two mitigation
techniques the prototype planned to test:

* **critical-word-first copy-on-write** — apply the host's write to the
  SRAM page as soon as its beat has arrived and acknowledge the host,
  streaming the rest of the page in the background;
* **lazy copy-on-write** — copy only on first write per page as usual,
  but count on buffer coalescing so each (expensive) narrow copy is
  amortised over many cheap SRAM hits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import MIB, EnvyConfig, FlashParams, SramParams
from .controller import EnvyController

__all__ = ["PrototypeTimings", "PrototypeController", "prototype_config",
           "narrow_path_timings"]


def prototype_config(chips: int = 32, page_bytes: int = 256,
                     **overrides) -> EnvyConfig:
    """The Section 8 prototype: 128 MB of Flash behind a narrow bank.

    32 byte-wide chips of 4 Mbit (the era's parts) give 128 MB in one
    bank; a page crosses the array in ``page_bytes / chips`` cycles.
    """
    if chips <= 0 or page_bytes % chips:
        raise ValueError("chip count must divide the page size")
    flash = FlashParams(
        chip_bytes=4 * MIB,
        chips_per_bank=chips,
        num_banks=1,
        erase_blocks_per_chip=64,
    )
    sram = SramParams(buffer_bytes=flash.segment_bytes)
    config = EnvyConfig(flash=flash, sram=sram, page_bytes=page_bytes,
                        **overrides)
    # One bank of 64 segments: partitions of 16 still divide evenly.
    config.validate()
    return config


@dataclass(frozen=True)
class PrototypeTimings:
    """Host-visible latencies under a narrow data path."""

    transfer_width_bytes: int
    beats_per_page: int
    read_ns: int
    #: Copy-on-write when the whole page must cross before the ack.
    write_full_copy_ns: int
    #: Copy-on-write with critical-word-first: ack after the host's
    #: beat lands, stream the rest behind the ack.
    write_critical_word_ns: int
    #: SRAM-to-Flash transfer time added to every page program.
    flush_transfer_ns: int

    @property
    def flush_total_ns(self) -> int:
        """Transfer + program: the page's full path back to Flash."""
        return self.flush_transfer_ns + 4000


class PrototypeController(EnvyController):
    """An eNVy controller with the prototype's multi-beat page path.

    Overrides exactly the two costs the narrow path changes: the
    copy-on-write page copy (host-visible, unless critical-word-first
    acknowledges early) and the per-program page transfer (charged to
    flush time).  Placement, cleaning and data handling are inherited
    unchanged — the prototype differs in wiring, not policy.
    """

    def __init__(self, config: EnvyConfig = None, policy=None,
                 store_data: bool = True,
                 critical_word_first: bool = True) -> None:
        config = config or prototype_config()
        # Set before super().__init__: the store observer this class
        # overrides may fire during formatting.
        self.critical_word_first = critical_word_first
        self.timings = narrow_path_timings(config)
        super().__init__(config, policy, store_data)

    def _write_page(self, page: int, page_offset: int, chunk) -> int:
        cows_before = self.metrics.copy_on_writes
        base_ns = super()._write_page(page, page_offset, chunk)
        # Buffer hits never touch the narrow path; only a copy-on-write
        # moves a page across it.  The parent charged the wide-path copy
        # (one cycle); add the extra beats unless the controller
        # acknowledges after the critical word and streams the rest of
        # the page behind the host's back.
        if self.metrics.copy_on_writes == cows_before:
            return base_ns
        extra_beats = self.timings.beats_per_page - 1
        if extra_beats <= 0 or self.critical_word_first:
            return base_ns
        extra_ns = extra_beats * self.config.flash.read_ns
        self.metrics.charge("host-write", extra_ns)
        return base_ns + extra_ns

    def _on_store_event(self, event: str, position: int,
                        amount: int) -> None:
        super()._on_store_event(event, position, amount)
        if event in ("program", "clean_copy", "transfer"):
            # Each programmed page first crosses the narrow path.
            extra = amount * self.timings.flush_transfer_ns
            bucket = "flush" if event == "program" else "clean"
            self.metrics.charge(bucket, extra)
            self._pending_work_ns += extra


def narrow_path_timings(config: EnvyConfig) -> PrototypeTimings:
    """Derive the narrow-path latencies from a configuration.

    One beat moves ``chips_per_bank`` bytes and costs one memory cycle
    (the chip read/write time); the wide system's single-cycle numbers
    fall out as the special case of 256 chips.
    """
    flash = config.flash
    width = flash.chips_per_bank
    beats = -(-config.page_bytes // width)
    bus = config.bus_overhead_ns
    cycle = flash.read_ns
    read_ns = bus + cycle  # word reads never need the whole page
    full_copy = bus + beats * cycle + config.sram.write_ns
    critical = bus + cycle + config.sram.write_ns
    flush_transfer = beats * config.sram.read_ns
    return PrototypeTimings(
        transfer_width_bytes=width,
        beats_per_page=beats,
        read_ns=read_ns,
        write_full_copy_ns=full_copy,
        write_critical_word_ns=critical,
        flush_transfer_ns=flush_transfer,
    )
