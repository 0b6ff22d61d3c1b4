"""RAM-disk block device over eNVy's linear memory (Section 1).

"For backwards compatibility, a simple RAM disk program can make a
memory array usable by a standard file system."  This adapter presents
the word-addressable eNVy space as a classic block device — fixed-size
sectors, read/write by block number — so unmodified block-oriented
software can run on top.

It also illustrates the paper's efficiency argument in reverse: every
single-byte update through the block interface costs a full sector
read-modify-write, the overhead eNVy's memory-mapped interface removes.

Every operation is charged through the timing model: when the backing
memory reports per-access nanoseconds (``read_timed``/``write`` on an
:class:`~repro.core.controller.EnvySystem`), the device accumulates
those; otherwise it falls back to the Figure 1 DRAM rates from
:mod:`repro.core.costmodel`.  A memory that exposes a
``block_devices`` list (the controller does) gets the device
registered there, so its counters surface in ``health_report()``.
"""

from __future__ import annotations

from typing import Tuple

from ..core.costmodel import DRAM_READ_NS, DRAM_WRITE_NS

__all__ = ["BlockDevice", "BlockDeviceError"]


class BlockDeviceError(Exception):
    """Raised for out-of-range or missized block operations."""


class BlockDevice:
    """Fixed-size-sector view of a byte-addressable memory."""

    def __init__(self, memory, block_bytes: int = 512,
                 offset: int = 0, num_blocks: int = None) -> None:
        """``memory`` is an EnvySystem (or anything with read/write).

        ``offset``/``num_blocks`` carve the device out of a region of
        the address space, so a block device can coexist with memory-
        mapped data structures in the same array.
        """
        if block_bytes <= 0:
            raise ValueError("block size must be positive")
        self.memory = memory
        self.block_bytes = block_bytes
        self.offset = offset
        if num_blocks is None:
            if not hasattr(memory, "size_bytes"):
                raise ValueError("num_blocks required when the memory "
                                 "does not report its size")
            num_blocks = (memory.size_bytes - offset) // block_bytes
        if num_blocks <= 0:
            raise ValueError("device needs at least one block")
        self.num_blocks = num_blocks
        self.reads = 0
        self.writes = 0
        #: Nanoseconds the underlying memory charged for this device's
        #: reads/writes (or the Figure 1 DRAM fallback when the memory
        #: is untimed).
        self.read_ns = 0
        self.write_ns = 0
        self._read_timed = getattr(memory, "read_timed", None)
        devices = getattr(memory, "block_devices", None)
        if devices is not None:
            devices.append(self)

    # ------------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        return self.num_blocks * self.block_bytes

    def _address(self, block: int) -> int:
        if not 0 <= block < self.num_blocks:
            raise BlockDeviceError(
                f"block {block} out of range (device has "
                f"{self.num_blocks} blocks)")
        return self.offset + block * self.block_bytes

    # ------------------------------------------------------------------

    def read_block_timed(self, block: int) -> Tuple[bytes, int]:
        """Read one whole sector; returns (data, nanoseconds)."""
        address = self._address(block)
        if self._read_timed is not None:
            data, ns = self._read_timed(address, self.block_bytes)
        else:
            data = self.memory.read(address, self.block_bytes)
            ns = DRAM_READ_NS
        self.reads += 1
        self.read_ns += ns
        return data, ns

    def read_block(self, block: int) -> bytes:
        """Read one whole sector."""
        return self.read_block_timed(block)[0]

    def write_block_timed(self, block: int, data: bytes) -> int:
        """Write one whole sector; returns the nanoseconds it took."""
        if len(data) != self.block_bytes:
            raise BlockDeviceError(
                f"write must be exactly {self.block_bytes} bytes, "
                f"got {len(data)}")
        ns = self.memory.write(self._address(block), data)
        if ns is None:
            ns = DRAM_WRITE_NS
        self.writes += 1
        self.write_ns += ns
        return ns

    def write_block(self, block: int, data: bytes) -> None:
        """Write one whole sector (must be exactly one block long)."""
        self.write_block_timed(block, data)

    def stats(self) -> dict:
        """Operation/time counters (folded into ``health_report()``)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "read_ns": self.read_ns,
            "write_ns": self.write_ns,
            "blocks": self.num_blocks,
            "block_bytes": self.block_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BlockDevice({self.num_blocks} x {self.block_bytes} B "
                f"at +{self.offset})")
