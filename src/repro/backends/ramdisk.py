"""Backend (b): the ``repro.ramdisk`` block device as the medium.

The RAM-disk backend keeps the controller-facing segment model (the
write-once/bulk-erase state machine is what the cleaner relies on) but
moves every payload through a :class:`~repro.ramdisk.blockdev.
BlockDevice` over a flat byte image — the Section 1 "simple RAM disk
program" running in reverse: instead of a filesystem on top of eNVy,
eNVy on top of a block device.

Consequences the tests pin down:

* every program/read/erase is a block-device operation, counted and
  timed by the device (satellite: blockdev ops are charged through
  :mod:`repro.core.costmodel` and surface in ``health_report()``);
* per-op cost hooks return the Figure 1 DRAM constants instead of
  Flash timing — a RAM disk has no 4 us programs or 50 ms erases —
  so the same workload runs with DRAM-speed maintenance while the
  logical page-state digest stays identical to the Flash backend;
* the image is a complete, independently readable copy of the array:
  after any fault-free run, ``image_page(flat_page)`` equals the bytes
  the controller returns.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.costmodel import DRAM_READ_NS, DRAM_WRITE_NS
from ..flash.array import FlashArray
from ..ramdisk.blockdev import BlockDevice
from .registry import RegistryError, register_backend

__all__ = ["RamImage", "RamdiskBackend", "make_ramdisk_backend"]


class RamImage:
    """Flat byte memory with DRAM-cost timed accessors.

    The minimal ``memory`` contract :class:`BlockDevice` consumes:
    ``read_timed``/``write`` return the nanoseconds the access cost at
    the Figure 1 DRAM rate (one wide access per block-sized chunk).
    """

    def __init__(self, size_bytes: int) -> None:
        self.size_bytes = size_bytes
        self.data = bytearray(size_bytes)

    def read_timed(self, address: int, length: int) -> Tuple[bytes, int]:
        return bytes(self.data[address:address + length]), DRAM_READ_NS

    def read(self, address: int, length: int) -> bytes:
        return self.read_timed(address, length)[0]

    def write(self, address: int, data: bytes) -> int:
        self.data[address:address + len(data)] = data
        return DRAM_WRITE_NS


class RamdiskBackend(FlashArray):
    """FlashArray semantics over a block-device RAM image."""

    backend_name = "ramdisk"

    def __init__(self, params=None, page_bytes: int = 256,
                 store_data: bool = True, spare_segments: int = 0,
                 block_bytes: Optional[int] = None) -> None:
        super().__init__(params, page_bytes, store_data=store_data,
                         spare_segments=spare_segments)
        block = int(block_bytes) if block_bytes else page_bytes
        if page_bytes % block:
            raise ValueError("block_bytes must divide the page size")
        self.image = RamImage(self.total_pages * page_bytes)
        self.device = BlockDevice(self.image, block_bytes=block)
        self._blocks_per_page = page_bytes // block
        self._erased_page = b"\xff" * page_bytes

    # --- medium access -------------------------------------------------

    def _page_blocks(self, segment: int, page: int) -> range:
        first = (segment * self.pages_per_segment + page) \
            * self._blocks_per_page
        return range(first, first + self._blocks_per_page)

    def _device_write_page(self, segment: int, page: int,
                           payload: bytes) -> None:
        block_bytes = self.device.block_bytes
        for i, block in enumerate(self._page_blocks(segment, page)):
            chunk = payload[i * block_bytes:(i + 1) * block_bytes]
            self.device.write_block(block, chunk)

    def image_page(self, flat_page: int) -> bytes:
        """The image's bytes for one physical page (inspection/tests)."""
        offset = flat_page * self.page_bytes
        return bytes(self.image.data[offset:offset + self.page_bytes])

    # --- operations ----------------------------------------------------

    def program_page(self, segment: int, data: Optional[bytes] = None,
                     oob: Optional[bytes] = None) -> Tuple[int, int]:
        page, ns = super().program_page(segment, data, oob)
        payload = bytes(data) if data is not None \
            else bytes(self.page_bytes)
        self._device_write_page(segment, page, payload)
        return page, ns

    def read_page(self, segment: int, page: int) -> Optional[bytes]:
        data = super().read_page(segment, page)
        # The medium access: the payload crosses the block interface
        # (and is counted/timed there) even though the fault/ECC path
        # above decides what the caller actually sees.
        for block in self._page_blocks(segment, page):
            self.device.read_block(block)
        return data

    def erase_segment(self, segment: int) -> int:
        ns = super().erase_segment(segment)
        # Erased Flash reads all-ones; mirror that into the image.
        for page in range(self.pages_per_segment):
            self._device_write_page(segment, page, self._erased_page)
        return ns

    # --- per-op cost hooks: DRAM, not Flash ----------------------------

    def read_time_ns(self, segment: int = 0) -> int:
        return DRAM_READ_NS * self._blocks_per_page

    def program_time_ns(self, segment: int = 0) -> int:
        return DRAM_WRITE_NS * self._blocks_per_page

    def erase_time_ns(self, segment: int = 0) -> int:
        return (DRAM_WRITE_NS * self._blocks_per_page
                * self.pages_per_segment)

    # --- reporting -----------------------------------------------------

    def media_report(self) -> dict:
        return {
            "medium": "ramdisk",
            "device_reads": self.device.reads,
            "device_writes": self.device.writes,
            "device_read_ns": self.device.read_ns,
            "device_write_ns": self.device.write_ns,
            "device_blocks": self.device.num_blocks,
        }


@register_backend(
    "ramdisk",
    summary="repro.ramdisk block device over a DRAM image "
            "(Figure 1 DRAM timing)",
    options="block_bytes=<divides page size; default page_bytes>")
def make_ramdisk_backend(config, store_data, spare_segments,
                         block_bytes=None):
    if block_bytes is not None and block_bytes < 1:
        raise RegistryError(f"ramdisk: block_bytes={block_bytes} must be >= 1")
    return RamdiskBackend(config.flash, config.page_bytes,
                          store_data=store_data,
                          spare_segments=spare_segments,
                          block_bytes=block_bytes)
