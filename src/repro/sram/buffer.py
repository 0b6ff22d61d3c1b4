"""Battery-backed SRAM write buffer (Section 3.2).

When the host writes to a Flash-resident page, eNVy copies that page into
SRAM, applies the write there, and redirects the page table to the SRAM
copy.  From then on further writes to the page are plain SRAM updates —
this coalescing is why the TPC-A workload flushes only about one page per
transaction even though every transaction modifies three records.

The buffer is managed strictly as a FIFO: "New pages are inserted at the
head and pages are flushed from the tail.  Pages are flushed from the
buffer when their number exceeds a certain threshold."  (More elaborate
replacement was rejected in the paper as too hard to do in hardware.)

Because the SRAM copy is the *only* valid copy once the Flash original is
invalidated, the buffer must be battery backed; :meth:`power_cycle`
models a power failure and is used by the recovery tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

__all__ = ["BufferEntry", "WriteBuffer", "BufferFullError"]


class BufferFullError(RuntimeError):
    """Raised when inserting into a buffer that has no free slots."""


class BufferEntry:
    """One buffered page: the live copy of a logical page in SRAM."""

    __slots__ = ("logical_page", "data", "origin", "insert_seq")

    def __init__(self, logical_page: int, data: Optional[bytearray],
                 origin: int, insert_seq: int) -> None:
        self.logical_page = logical_page
        #: Page contents (None when the system runs in stateless mode).
        self.data = data
        #: Segment (or partition) the page was copied from, recorded so a
        #: flush can return it to the same place (Section 4.3: "When a
        #: page is placed into the SRAM buffer, we record which segment it
        #: comes from.  When it is flushed, it is written back to the same
        #: segment.").
        self.origin = origin
        #: Monotonic sequence number fixing the FIFO order.
        self.insert_seq = insert_seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BufferEntry(lp={self.logical_page}, origin={self.origin}, "
                f"seq={self.insert_seq})")


class WriteBuffer:
    """A FIFO of page-sized slots in battery-backed SRAM."""

    def __init__(self, capacity_pages: int, page_bytes: int = 256,
                 flush_threshold: float = 0.75,
                 battery_backed: bool = True) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer needs at least one page slot")
        if not 0.0 < flush_threshold <= 1.0:
            raise ValueError("flush_threshold must be in (0, 1]")
        self.capacity_pages = capacity_pages
        self.page_bytes = page_bytes
        self.battery_backed = battery_backed
        #: Number of buffered pages beyond which the controller starts
        #: flushing in the background.
        self.threshold_pages = max(1, int(capacity_pages * flush_threshold))
        self._entries: "OrderedDict[int, BufferEntry]" = OrderedDict()
        self._next_seq = 0
        #: Lifetime counters for the metrics module.
        self.total_inserts = 0
        self.total_flushes = 0

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, logical_page: int) -> bool:
        return logical_page in self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity_pages

    @property
    def over_threshold(self) -> bool:
        """True when background flushing should be running (Section 3.4)."""
        return len(self._entries) > self.threshold_pages

    # ------------------------------------------------------------------
    # FIFO operations
    # ------------------------------------------------------------------

    def peek(self, logical_page: int) -> Optional[BufferEntry]:
        """Look up a buffered page without disturbing FIFO order."""
        return self._entries.get(logical_page)

    def insert(self, logical_page: int, data: Optional[bytearray],
               origin: int) -> BufferEntry:
        """Insert a new page at the head of the FIFO."""
        if logical_page in self._entries:
            raise ValueError(f"logical page {logical_page} already buffered")
        if self.is_full:
            raise BufferFullError(
                f"write buffer full ({self.capacity_pages} pages); "
                f"flush before inserting")
        entry = BufferEntry(logical_page, data, origin, self._next_seq)
        self._next_seq += 1
        self.total_inserts += 1
        self._entries[logical_page] = entry
        return entry

    def pop_tail(self) -> BufferEntry:
        """Remove and return the oldest entry (the flush candidate)."""
        if not self._entries:
            raise BufferFullError("write buffer is empty; nothing to flush")
        _, entry = self._entries.popitem(last=False)
        self.total_flushes += 1
        return entry

    def remove(self, logical_page: int) -> BufferEntry:
        """Remove a specific page (used by transaction aborts)."""
        try:
            return self._entries.pop(logical_page)
        except KeyError:
            raise KeyError(f"logical page {logical_page} not buffered")

    def entries(self) -> Iterator[BufferEntry]:
        """Iterate entries from tail (oldest) to head (newest)."""
        return iter(self._entries.values())

    # ------------------------------------------------------------------
    # Power failure model
    # ------------------------------------------------------------------

    def power_cycle(self) -> None:
        """Simulate a power failure and restart.

        A battery-backed buffer keeps its contents; a volatile one loses
        everything — which would lose the only copy of every buffered
        page, exactly why Section 3.2 requires the battery.  The
        insert/flush counters are statistics, not state the battery
        protects — they reset either way, so post-recovery counts
        describe the new epoch rather than blending two runs.
        """
        if not self.battery_backed:
            self._entries.clear()
        self.total_inserts = 0
        self.total_flushes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WriteBuffer({len(self._entries)}/{self.capacity_pages} "
                f"pages, threshold={self.threshold_pages})")
