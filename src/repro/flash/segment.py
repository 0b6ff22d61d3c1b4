"""Page-granularity model of a Flash segment.

A segment is the smallest independently erasable unit of the eNVy array:
one erase block from each of the 256 chips in a bank, 16 MB at paper scale
(Section 3.4, Figure 4).  The 256-byte-wide data path means a whole page
is transferred in a single memory cycle, and all chips of a bank program
and erase in lock-step — so wear is uniform across a segment and the
segment, not the chip, is the natural bookkeeping unit.

Pages move through three states:

* ``ERASED`` — all ones, ready to accept a program operation;
* ``VALID``  — holds the live copy of some logical page;
* ``INVALID`` — holds a superseded copy that only an erase can reclaim.

The state machine enforces Flash's write-once rule: only ERASED pages can
be programmed, and the only way back to ERASED is a whole-segment erase.
"""

from __future__ import annotations

from enum import IntEnum
from typing import List, Optional

from .errors import AddressError, BadBlockError, EraseError, ProgramError

__all__ = ["PageState", "FlashSegment"]


class PageState(IntEnum):
    """Lifecycle state of one 256-byte page within a segment."""

    ERASED = 0
    VALID = 1
    INVALID = 2


class FlashSegment:
    """One independently erasable segment of the Flash array.

    Parameters
    ----------
    num_pages:
        Pages per segment (65,536 at paper scale: 16 MB / 256 B).
    page_bytes:
        Page size; only used when the segment stores real data.
    store_data:
        When False the segment tracks only page states and wear, which is
        what the simulators need; when True it also holds page contents
        for the data-bearing controller.
    """

    __slots__ = ("segment_id", "num_pages", "page_bytes", "store_data",
                 "states", "data", "oob", "erase_count", "program_count",
                 "write_pointer", "live_count", "live_slots", "_erasing",
                 "is_bad")

    def __init__(self, segment_id: int, num_pages: int, page_bytes: int = 256,
                 store_data: bool = True) -> None:
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        self.segment_id = segment_id
        self.num_pages = num_pages
        self.page_bytes = page_bytes
        self.store_data = store_data
        self.states: List[PageState] = [PageState.ERASED] * num_pages
        self.data: List[Optional[bytes]] = ([None] * num_pages
                                            if store_data else [])
        #: Out-of-band (spare-area) metadata per page, stamped at program
        #: time (see :mod:`repro.flash.oob`).  Kept even in stateless
        #: mode: the OOB is what makes the array self-describing, and
        #: recovery needs it whether or not payloads are modelled.
        self.oob: List[Optional[bytes]] = [None] * num_pages
        #: Cumulative program/erase cycles (wear) for this segment.
        self.erase_count = 0
        #: Total page program operations over the segment's lifetime.
        self.program_count = 0
        #: Next sequentially writable page ("data is written to the tail
        #: of a segment", Section 4.3).
        self.write_pointer = 0
        self.live_count = 0
        #: Indices of VALID pages, maintained incrementally so
        #: :meth:`live_pages` never rescans the state list.  Code that
        #: assigns ``states`` wholesale must call
        #: :meth:`rebuild_live_slots`.
        self.live_slots: set = set()
        self._erasing = False
        #: Retired after a permanent erase failure (grown bad block).
        #: Existing data stays readable (Section 2) but the segment
        #: accepts no further program or erase operations.
        self.is_bad = False

    # ------------------------------------------------------------------

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.num_pages:
            raise AddressError(
                f"page {page} out of range for segment {self.segment_id} "
                f"({self.num_pages} pages)")

    @property
    def free_pages(self) -> int:
        """Pages still erased and sequentially reachable for programming."""
        return self.num_pages - self.write_pointer

    @property
    def invalid_pages(self) -> int:
        """Pages holding superseded data (reclaimable only by erase)."""
        return self.write_pointer - self.live_count

    @property
    def is_erased(self) -> bool:
        return self.write_pointer == 0 and self.live_count == 0

    # ------------------------------------------------------------------
    # Program / read / invalidate
    # ------------------------------------------------------------------

    def program_page(self, data: Optional[bytes] = None,
                     oob: Optional[bytes] = None) -> int:
        """Program the next sequential page; returns its index.

        Appending at the write pointer models the real array: with a
        256-byte-wide bank there is exactly one in-order program stream
        per segment, and the cleaner relies on this order being preserved
        (Section 4.3: "the order of the pages is maintained").

        ``oob`` is the page's spare-area self-description (see
        :mod:`repro.flash.oob`); it travels down the same wide datapath
        in the same program cycle, so stamping it costs no extra time.
        """
        if self.is_bad:
            raise BadBlockError(self.segment_id, "retired")
        if self._erasing:
            raise EraseError(f"segment {self.segment_id} is being erased")
        if self.write_pointer >= self.num_pages:
            raise ProgramError(f"segment {self.segment_id} is full")
        page = self.write_pointer
        if self.states[page] is not PageState.ERASED:
            raise ProgramError(
                f"page {page} of segment {self.segment_id} is not erased")
        if self.store_data:
            if data is not None and len(data) != self.page_bytes:
                raise ValueError(
                    f"page data must be {self.page_bytes} bytes, "
                    f"got {len(data)}")
            self.data[page] = bytes(data) if data is not None else None
        self.oob[page] = bytes(oob) if oob is not None else None
        self.states[page] = PageState.VALID
        self.write_pointer += 1
        self.live_count += 1
        self.live_slots.add(page)
        self.program_count += 1
        return page

    def read_page(self, page: int) -> Optional[bytes]:
        """Return the stored bytes of ``page`` (None in stateless mode)."""
        self._check_page(page)
        if self._erasing:
            raise EraseError(f"segment {self.segment_id} is being erased")
        if self.states[page] is PageState.ERASED:
            raise AddressError(
                f"page {page} of segment {self.segment_id} is erased")
        if not self.store_data:
            return None
        return self.data[page]

    def read_oob(self, page: int) -> Optional[bytes]:
        """Return the spare-area bytes of a programmed page.

        Erased pages have no OOB (they read all-ones on real parts, the
        unambiguous "never programmed" marker), so asking for one is an
        addressing error just like reading their data.
        """
        self._check_page(page)
        if self._erasing:
            raise EraseError(f"segment {self.segment_id} is being erased")
        if self.states[page] is PageState.ERASED:
            raise AddressError(
                f"page {page} of segment {self.segment_id} is erased")
        return self.oob[page]

    def invalidate_page(self, page: int) -> None:
        """Mark ``page`` as superseded after a copy-on-write or clean."""
        self._check_page(page)
        if self.states[page] is not PageState.VALID:
            raise ProgramError(
                f"page {page} of segment {self.segment_id} is not valid "
                f"(state={self.states[page].name})")
        self.states[page] = PageState.INVALID
        self.live_count -= 1
        self.live_slots.discard(page)

    def rebuild_live_slots(self) -> None:
        """Recompute :attr:`live_slots` after ``states`` was replaced
        wholesale (snapshot restore)."""
        self.live_slots = {i for i in range(self.write_pointer)
                           if self.states[i] is PageState.VALID}

    # ------------------------------------------------------------------
    # Erase
    # ------------------------------------------------------------------

    def erase(self) -> None:
        """Bulk-erase the whole segment back to the ERASED state."""
        self.begin_erase()
        self.finish_erase()

    def mark_bad(self) -> None:
        """Retire the segment after a permanent failure."""
        self.is_bad = True
        self._erasing = False

    def begin_erase(self) -> None:
        """Start a (suspendable) erase; data becomes inaccessible."""
        if self.is_bad:
            raise BadBlockError(self.segment_id, "retired")
        if self._erasing:
            raise EraseError(f"segment {self.segment_id} already erasing")
        if self.live_count:
            raise EraseError(
                f"segment {self.segment_id} still holds {self.live_count} "
                f"live pages; clean it first")
        self._erasing = True

    def finish_erase(self) -> None:
        if not self._erasing:
            raise EraseError(f"segment {self.segment_id} is not erasing")
        self._erasing = False
        self.states = [PageState.ERASED] * self.num_pages
        if self.store_data:
            self.data = [None] * self.num_pages
        self.oob = [None] * self.num_pages
        self.write_pointer = 0
        self.live_count = 0
        self.live_slots = set()
        self.erase_count += 1

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------

    def rebuild_states(self, live_slots) -> None:
        """Reset VALID/INVALID marks from a recovery scan's verdicts.

        The VALID/INVALID state machine is controller bookkeeping (real
        cells hold only data); after a power loss that took the SRAM
        with it, the recovery scan re-derives liveness from OOB epochs
        and installs its verdict here.  Programmed slots in
        ``live_slots`` become VALID, every other programmed slot
        INVALID; erased slots are untouched.
        """
        live = 0
        for slot in range(self.write_pointer):
            if slot in live_slots:
                self.states[slot] = PageState.VALID
                live += 1
            else:
                self.states[slot] = PageState.INVALID
        self.live_count = live
        self.rebuild_live_slots()

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlashSegment(id={self.segment_id}, live={self.live_count}"
                f"/{self.num_pages}, wp={self.write_pointer}, "
                f"erases={self.erase_count})")
