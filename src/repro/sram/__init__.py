"""Battery-backed SRAM substrate: write buffer, page table and MMU.

Implements the non-volatile SRAM subsystems of Sections 3.2-3.3: the FIFO
write buffer that hides Flash program latency, the logical-to-physical
page table whose atomic update is the copy-on-write commit point, and the
MMU translation cache of Section 5.1.
"""

from .buffer import BufferEntry, BufferFullError, WriteBuffer
from .mmu import Mmu
from .pagetable import Location, PageTable

__all__ = [
    "WriteBuffer",
    "BufferEntry",
    "BufferFullError",
    "PageTable",
    "Location",
    "Mmu",
]
