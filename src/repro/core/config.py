"""Configuration objects for the eNVy storage system.

The defaults mirror Figure 12 of the paper ("eNVy Simulation Parameters"):
a 2 gigabyte Flash array built from 2048 one-megabyte chips organised as
8 banks of 256 byte-wide chips, a 16 megabyte battery-backed SRAM write
buffer, 256-byte pages, and the timing constants of 1994-era parts.

Because a full-scale (2 GB) software model is slow to simulate in Python,
:meth:`EnvyConfig.scaled` produces smaller configurations that preserve the
*ratios* the paper's results depend on: flash utilization, the number of
segments, pages per segment relative to erase time, and the SRAM buffer to
segment-size relationship.  Every benchmark documents the scale it ran at.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from ..faults.plan import FaultPlan

__all__ = [
    "FlashParams",
    "SramParams",
    "TpcParams",
    "EnvyConfig",
    "PAPER_FLASH",
    "PAPER_SRAM",
    "PAPER_TPC",
]

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

MS = 1_000_000  # nanoseconds per millisecond
US = 1_000  # nanoseconds per microsecond


@dataclass(frozen=True)
class FlashParams:
    """Physical parameters of the Flash array (Figure 12, left column).

    A *segment* is the smallest independently erasable unit of the array:
    one erase block from each chip of a bank (Section 3.4, Figure 4).
    """

    chip_bytes: int = 1 * MIB
    chips_per_bank: int = 256
    num_banks: int = 8
    erase_blocks_per_chip: int = 16
    read_ns: int = 100
    write_ns: int = 100
    program_ns: int = 4000
    erase_ns: int = 50 * MS
    #: Guaranteed program/erase cycles per block (Section 5.5 uses 1M parts).
    endurance_cycles: int = 1_000_000
    #: Dollars per megabyte (Figure 1).
    cost_per_mib: float = 30.0

    @property
    def array_bytes(self) -> int:
        """Total capacity of the Flash array."""
        return self.chip_bytes * self.chips_per_bank * self.num_banks

    @property
    def erase_block_bytes(self) -> int:
        """Size of one erase block inside a single chip."""
        return self.chip_bytes // self.erase_blocks_per_chip

    @property
    def segment_bytes(self) -> int:
        """One erase block across every chip of a bank (Figure 4)."""
        return self.erase_block_bytes * self.chips_per_bank

    @property
    def segments_per_bank(self) -> int:
        return self.erase_blocks_per_chip

    @property
    def num_segments(self) -> int:
        """Independently erasable segments in the whole array."""
        return self.segments_per_bank * self.num_banks

    @property
    def num_chips(self) -> int:
        return self.chips_per_bank * self.num_banks

    def validate(self) -> None:
        if self.chip_bytes % self.erase_blocks_per_chip:
            raise ValueError("chip size must be a multiple of the erase block count")
        for name in ("chip_bytes", "chips_per_bank", "num_banks",
                     "erase_blocks_per_chip", "read_ns", "program_ns",
                     "erase_ns", "endurance_cycles"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SramParams:
    """Battery-backed SRAM parameters (Figure 12, right column)."""

    buffer_bytes: int = 16 * MIB
    read_ns: int = 100
    write_ns: int = 100
    #: Dollars per megabyte (Figure 1).
    cost_per_mib: float = 120.0

    def validate(self) -> None:
        if self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if self.read_ns <= 0 or self.write_ns <= 0:
            raise ValueError("SRAM access times must be positive")


@dataclass(frozen=True)
class TpcParams:
    """TPC-A database geometry (Figure 12, bottom table, and Section 5.2).

    For every branch there are 10 tellers, each responsible for 10,000
    accounts.  Balance information is a 100-byte record; each index tree is
    a B-Tree with 32 entries per node.
    """

    num_accounts: int = 15_500_000
    tellers_per_branch: int = 10
    accounts_per_teller: int = 10_000
    record_bytes: int = 100
    btree_fanout: int = 32

    @property
    def accounts_per_branch(self) -> int:
        return self.tellers_per_branch * self.accounts_per_teller

    @property
    def num_branches(self) -> int:
        return max(1, self.num_accounts // self.accounts_per_branch)

    @property
    def num_tellers(self) -> int:
        return self.num_branches * self.tellers_per_branch

    def index_levels(self, num_records: int) -> int:
        """Depth of a B-tree with ``btree_fanout`` entries per node.

        The paper quotes 2 levels for 155 branches, 3 for 1,550 tellers and
        5 for 15.5 million accounts, which matches ``ceil(log_32(n))``.
        """
        if num_records <= 1:
            return 1
        levels = 1
        capacity = self.btree_fanout
        while capacity < num_records:
            capacity *= self.btree_fanout
            levels += 1
        return levels

    def scaled_to_accounts(self, num_accounts: int) -> "TpcParams":
        """Return a copy resized to ``num_accounts``.

        Keeps the branch:teller ratio (1:10) and shrinks the accounts
        per teller so the tellers still cover the whole account range —
        the structural property every TPC-A transaction depends on
        (Section 5.2: "The database can be scaled to fit any storage
        system using the ratios described above").
        """
        num_accounts = int(num_accounts)
        if num_accounts < 1:
            raise ValueError("need at least one account")
        branches = max(1, num_accounts // self.accounts_per_branch)
        tellers = branches * self.tellers_per_branch
        per_teller = -(-num_accounts // tellers)  # ceil
        return dataclasses.replace(self, num_accounts=num_accounts,
                                   accounts_per_teller=per_teller)


@dataclass(frozen=True)
class EnvyConfig:
    """Complete configuration of an eNVy storage system.

    Combines the Flash and SRAM substrates with the architectural
    parameters of Section 3: the 256-byte page size, the 6-byte page table
    entry, the bus overhead added on top of raw chip access times, and the
    cleaning policy parameters of Section 4.
    """

    flash: FlashParams = field(default_factory=FlashParams)
    sram: SramParams = field(default_factory=SramParams)
    page_bytes: int = 256
    #: Bytes of battery-backed SRAM per page-table entry (Section 3.3).
    page_table_entry_bytes: int = 6
    #: Extra latency per host access for propagation delays and control
    #: signal generation (Section 5.1: "60ns is added to each access").
    bus_overhead_ns: int = 60
    #: Fraction of the Flash array that may hold live data (Section 4.1:
    #: "we limit the percentage of live data ... to 80%").
    max_utilization: float = 0.80
    #: Write-buffer occupancy (fraction) beyond which flushing starts.
    flush_threshold: float = 0.75
    #: Segments per partition for the hybrid cleaner (Section 4.4).
    partition_segments: int = 16
    #: Cleaning policy: "greedy", "fifo", "locality" or "hybrid".
    cleaning_policy: str = "hybrid"
    #: Program/erase cycle spread that triggers a wear-leveling swap
    #: (Section 4.3: "over 100 cycles older than the youngest").
    wear_swap_cycles: int = 100
    #: Delay before resuming a suspended long operation (Section 3.4:
    #: "waits a few microseconds before resuming").
    resume_delay_ns: int = 2 * US
    # --- fault tolerance (repro.faults) -------------------------------
    #: Device-fault injection schedule; None (or an all-zero plan) runs
    #: the array fault-free with zero overhead.
    fault_plan: Optional[FaultPlan] = None
    #: Per-page SEC-DED ECC.  None means automatic: on exactly when a
    #: nonzero fault plan is active, so the fault-free path stays
    #: bit-identical in timing to a system without the ECC layer.
    ecc_enabled: Optional[bool] = None
    #: Controller time charged per Flash page read for the ECC check
    #: (syndrome computation happens in the wide datapath; 0 models it
    #: as fully overlapped, like the page-table update of Section 5.1).
    ecc_check_ns: int = 0
    #: Bounded retries for transient program / erase failures before the
    #: operation is escalated (program: raised; erase: block retired).
    program_retries: int = 3
    erase_retries: int = 3
    #: Spare segments provisioned beyond the cleaner's one erased spare,
    #: forming the bad-block reserve pool.
    reserve_segments: int = 0
    #: Raise :class:`~repro.flash.errors.EnduranceExceeded` on erases
    #: past the rated cycle count instead of recording the overshoot.
    strict_endurance: bool = False
    # --- crash consistency (repro.core.checkpoint / recovery) ---------
    #: Write a flash-resident page-table checkpoint every N buffer
    #: flushes; None disables checkpointing entirely (no metadata
    #: segments are carved out, so the fault-free timing is
    #: bit-identical to a system without the checkpoint machinery).
    checkpoint_interval_flushes: Optional[int] = None
    #: Flash segments dedicated to checkpoints when enabled (ping-pong:
    #: the newest checkpoint is written to an erased metadata segment
    #: before the stale one is erased, so a crash mid-checkpoint always
    #: leaves one complete older checkpoint intact).
    checkpoint_segments: int = 2
    # --- performance (repro.perf) -------------------------------------
    #: Stamp every program's out-of-band self-description record.  None
    #: means automatic: on when page payloads are stored or
    #: checkpointing is enabled (the configurations recovery scans run
    #: against), off for placement-only simulation where nothing ever
    #: reads the stamps.  Stamps share the program cycle, so this knob
    #: never changes timing or metrics — only whether the Python model
    #: spends time packing CRC records nobody will read.
    oob_stamping: Optional[bool] = None
    # --- storage backend (repro.backends) -----------------------------
    #: Backend spec string naming the storage substrate, e.g. "flash",
    #: "ramdisk:block_bytes=256", "file:path=/tmp/envy.img",
    #: "onfi:factory_bad=2".  None (the default) constructs the
    #: simulated Flash array directly — byte-identical to "flash" but
    #: with no registry import on the default path.
    backend: Optional[str] = None

    @property
    def effective_checkpoint_segments(self) -> int:
        """Metadata segments actually carved out of the array."""
        return (self.checkpoint_segments
                if self.checkpoint_interval_flushes is not None else 0)

    @property
    def pages_per_segment(self) -> int:
        return self.flash.segment_bytes // self.page_bytes

    @property
    def total_pages(self) -> int:
        return self.flash.array_bytes // self.page_bytes

    @property
    def logical_pages(self) -> int:
        """Number of logical pages exposed to the host (80% of the array)."""
        return int(self.total_pages * self.max_utilization)

    @property
    def logical_bytes(self) -> int:
        return self.logical_pages * self.page_bytes

    @property
    def buffer_pages(self) -> int:
        return self.sram.buffer_bytes // self.page_bytes

    @property
    def page_table_bytes(self) -> int:
        """SRAM needed for the page table (6 bytes per *physical* page).

        Section 3.3: "For every gigabyte of Flash, 24 MBytes of SRAM is
        required for the page table" — 6 B x 4M pages/GiB = 24 MiB.
        """
        return self.total_pages * self.page_table_entry_bytes

    def validate(self) -> None:
        self.flash.validate()
        self.sram.validate()
        if self.page_bytes <= 0 or self.flash.segment_bytes % self.page_bytes:
            raise ValueError("segment size must be a multiple of the page size")
        if not 0.0 < self.max_utilization < 1.0:
            raise ValueError("max_utilization must be in (0, 1)")
        if not 0.0 < self.flush_threshold <= 1.0:
            raise ValueError("flush_threshold must be in (0, 1]")
        if self.partition_segments <= 0:
            raise ValueError("partition_segments must be positive")
        if self.flash.num_segments % self.partition_segments:
            raise ValueError("segments must divide evenly into partitions")
        if self.buffer_pages < 1:
            raise ValueError("write buffer must hold at least one page")
        if self.fault_plan is not None:
            self.fault_plan.validate()
        if self.ecc_check_ns < 0:
            raise ValueError("ecc_check_ns cannot be negative")
        if self.program_retries < 0 or self.erase_retries < 0:
            raise ValueError("retry budgets cannot be negative")
        if self.reserve_segments < 0:
            raise ValueError("reserve_segments cannot be negative")
        if self.reserve_segments >= self.flash.num_segments:
            raise ValueError("reserve pool cannot exceed the array")
        if self.checkpoint_interval_flushes is not None:
            if self.checkpoint_interval_flushes <= 0:
                raise ValueError(
                    "checkpoint_interval_flushes must be positive")
            if self.checkpoint_segments < 2:
                raise ValueError(
                    "checkpointing needs at least two metadata segments "
                    "(ping-pong: write the new one before erasing the old)")
            overhead = (1 + self.reserve_segments
                        + self.checkpoint_segments)
            if overhead >= self.flash.num_segments:
                raise ValueError(
                    "spare + reserve + checkpoint segments exceed the array")

    # ------------------------------------------------------------------
    # Canonical configurations
    # ------------------------------------------------------------------

    @classmethod
    def paper(cls) -> "EnvyConfig":
        """The exact configuration of Figure 12 (2 GB, 128 segments)."""
        return cls()

    @classmethod
    def small(cls, num_segments: int = 32, pages_per_segment: int = 256,
              **overrides) -> "EnvyConfig":
        """A laptop-scale configuration for tests and quick examples.

        Keeps 256-byte pages and a buffer sized to one segment, like the
        paper, but shrinks the array.  Erase time is scaled down so that
        the erase-time/segment-program-time ratio matches the paper
        (otherwise erasures would dominate a small array's time budget in
        a way the real system never experiences).
        """
        return cls.scaled(num_segments=num_segments,
                          pages_per_segment=pages_per_segment, **overrides)

    @classmethod
    def scaled(cls, num_segments: int = 32, pages_per_segment: int = 256,
               page_bytes: int = 256, chips_per_bank: int = 8,
               **overrides) -> "EnvyConfig":
        """Build a reduced configuration with paper-faithful ratios.

        ``erase_ns`` is scaled by ``pages_per_segment / 65536`` so that the
        fraction of time spent erasing per flushed page is unchanged from
        the paper-scale system.
        """
        paper = FlashParams()
        paper_pages_per_segment = paper.segment_bytes // 256
        if num_segments < 2 or num_segments % 2:
            raise ValueError("num_segments must be even and at least 2")
        segment_bytes = pages_per_segment * page_bytes
        erase_block_bytes = segment_bytes // chips_per_bank
        if erase_block_bytes < 1:
            raise ValueError("segment too small for the chip count")
        # Pack all segments into banks of `chips_per_bank` chips; use as
        # many banks as needed to keep erase blocks per chip reasonable.
        num_banks = max(1, min(8, num_segments // 4))
        while num_segments % num_banks:
            num_banks -= 1
        blocks_per_chip = num_segments // num_banks
        chip_bytes = erase_block_bytes * blocks_per_chip
        scale = pages_per_segment / paper_pages_per_segment
        flash = FlashParams(
            chip_bytes=chip_bytes,
            chips_per_bank=chips_per_bank,
            num_banks=num_banks,
            erase_blocks_per_chip=blocks_per_chip,
            erase_ns=max(1, int(paper.erase_ns * scale)),
        )
        sram = SramParams(buffer_bytes=segment_bytes)
        if "partition_segments" not in overrides:
            partition = min(16, num_segments)
            while num_segments % partition:
                partition -= 1
            overrides["partition_segments"] = partition
        config = cls(flash=flash, sram=sram, page_bytes=page_bytes,
                     **overrides)
        config.validate()
        return config


#: Module-level singletons for the paper's exact parameters.
PAPER_FLASH = FlashParams()
PAPER_SRAM = SramParams()
PAPER_TPC = TpcParams()
