"""The logical-to-physical page table (Section 3.3).

The table maps the linear logical address space presented to the host onto
either a Flash location ``(segment, page)`` or an SRAM write-buffer slot.
It lives in battery-backed SRAM because mappings change frequently and
in place, and because losing it would orphan every page in the array.

Updating a mapping is the commit point of the copy-on-write: "Since
changes do not become visible until the page table is updated, the entire
copy-on-write appears to be done as a single atomic operation."

Beyond the mapping, the table carries each page's *write epoch* — the
monotonic version number stamped into the out-of-band region of every
flash program (see :mod:`repro.flash.oob`).  The epoch counter and the
per-page epochs make a lost table reconstructible: a full-array scan
finds, for each logical page, the highest-epoch intact copy, and that is
by construction the entry this table held (see
:func:`repro.core.recovery.recover_from_flash`).

Entries are 6 bytes at paper scale, so a 2 GB array needs 48 MB of SRAM —
a deliberate trade against page size analysed in Section 3.3
(:attr:`EnvyConfig.page_table_bytes`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["Location", "PageTable"]

#: Marker for the medium a logical page currently lives on.
FLASH = "flash"
SRAM = "sram"


class Location(Tuple[str, int, int]):
    """Where a logical page lives: ``(medium, a, b)``.

    * ``("flash", segment, page)`` — the live copy is in the Flash array.
    * ``("sram", slot_key, 0)``    — the live copy is in the write buffer.
    """

    __slots__ = ()

    def __new__(cls, medium: str, a: int, b: int = 0) -> "Location":
        return super().__new__(cls, (medium, a, b))

    @property
    def in_flash(self) -> bool:
        return self[0] == FLASH

    @property
    def in_sram(self) -> bool:
        return self[0] == SRAM

    @property
    def slot(self) -> int:
        if self[0] != SRAM:
            raise ValueError("location is not in sram")
        return self[1]

    @classmethod
    def flash(cls, segment: int, page: int) -> "Location":
        return cls(FLASH, segment, page)

    @classmethod
    def sram(cls, slot: int) -> "Location":
        return cls(SRAM, slot)


class PageTable:
    """Dense logical-to-physical map kept in battery-backed SRAM."""

    def __init__(self, num_logical_pages: int, read_ns: int = 100,
                 write_ns: int = 100) -> None:
        if num_logical_pages <= 0:
            raise ValueError("page table needs at least one page")
        self.num_logical_pages = num_logical_pages
        self.read_ns = read_ns
        self.write_ns = write_ns
        self._entries: List[Optional[Location]] = [None] * num_logical_pages
        #: Write epoch of the live copy of each page (0 = never stamped).
        self._epochs: List[int] = [0] * num_logical_pages
        #: Next epoch to hand out; monotonic across the table's lifetime
        #: and rebuilt as ``max(scanned epochs) + 1`` after recovery.
        self.write_epoch = 1
        #: Lifetime counters for the metrics module.
        self.lookups = 0
        self.updates = 0

    # ------------------------------------------------------------------

    def _check(self, logical_page: int) -> None:
        if not 0 <= logical_page < self.num_logical_pages:
            raise IndexError(
                f"logical page {logical_page} out of range "
                f"(table covers {self.num_logical_pages} pages)")

    def lookup(self, logical_page: int) -> Optional[Location]:
        """Translate a logical page; None if it was never written."""
        self._check(logical_page)
        self.lookups += 1
        return self._entries[logical_page]

    def update(self, logical_page: int, location: Location,
               epoch: Optional[int] = None) -> None:
        """Atomically repoint a logical page at a new physical location.

        ``epoch`` records the write epoch of the copy the entry now
        points at (flash-resident copies only; SRAM entries keep the
        last flash epoch so recovery idempotence can be checked).
        """
        self._check(logical_page)
        self.updates += 1
        self._entries[logical_page] = location
        if epoch is not None:
            self._epochs[logical_page] = epoch

    def next_epoch(self) -> int:
        """Hand out the next monotonic write epoch."""
        epoch = self.write_epoch
        self.write_epoch += 1
        return epoch

    def note_epoch(self, logical_page: int, epoch: int) -> None:
        """Record a page's flash write epoch without a mapping update.

        Used by the flush path: the epoch is stamped into the OOB in the
        same program cycle, so noting it is not a separate table write.
        """
        self._check(logical_page)
        self._epochs[logical_page] = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageTable({self.num_logical_pages} pages)"
