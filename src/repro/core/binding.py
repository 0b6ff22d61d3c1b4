"""Binds the placement store to the physical Flash array.

:class:`~repro.cleaning.store.SegmentStore` is the single source of truth
for *where* every logical page lives, and the cleaning policies operate
on it.  :class:`BoundStore` extends it so that every placement operation
also moves real bytes through the byte-semantics
:class:`~repro.flash.array.FlashArray` — programs go to the matching
physical segment in append order, invalidations and erases are mirrored,
and cleaning physically copies survivor data onto the spare segment
before the old one is erased.

Because both sides are append-only per segment, the store's slot index
always equals the Flash page index, so the mirror needs no extra maps.
The FlashArray enforces write-once/bulk-erase at page level, so any
placement bug (double program, erase with live data, read of an erased
page) trips a :class:`~repro.flash.errors.FlashError` instead of passing
silently — the array acts as a runtime checker for the cleaner.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..cleaning.store import IN_BUFFER, SegmentStore, StoreError
from ..flash.array import FlashArray
from ..flash.errors import BadBlockError
from ..flash.oob import DATA, OobRecord, pack_oob, payload_crc

__all__ = ["BoundStore"]


class BoundStore(SegmentStore):
    """A SegmentStore whose operations carry page data through Flash.

    Every program is additionally stamped with an out-of-band record
    (:mod:`repro.flash.oob`): host flushes get a fresh *epoch* from
    ``epoch_source``, cleaner copies and transfers re-stamp the page's
    existing epoch (the copy is the same version), and every program —
    whoever issued it — consumes one global sequence number.  Together
    these make the array reconstructible by scan alone.
    """

    def __init__(self, num_positions: int, pages_per_segment: int,
                 num_logical_pages: int, array: FlashArray,
                 observer=None, bad_blocks=None,
                 checkpoint_segments: int = 0,
                 epoch_source: Optional[Callable[[], int]] = None) -> None:
        if checkpoint_segments < 0:
            raise ValueError("checkpoint_segments cannot be negative")
        if array.num_segments < num_positions + 1 + checkpoint_segments:
            raise ValueError(
                f"array must provide at least "
                f"{num_positions + 1 + checkpoint_segments} segments "
                f"(positions + the spare + checkpoint segments); it has "
                f"{array.num_segments}")
        if array.pages_per_segment != pages_per_segment:
            raise ValueError("array/store pages-per-segment mismatch")
        super().__init__(num_positions, pages_per_segment,
                         num_logical_pages, observer=observer)
        self.array = array
        # The highest-numbered segments are dedicated to page-table
        # checkpoints; segments between positions + 1 spare and the
        # checkpoint region are the bad-block reserve pool.  Both sit
        # outside the cleaning rotation (see erase_phys).
        self.phys_erase_counts = [0] * array.num_segments
        self.metadata_phys = set(
            range(array.num_segments - checkpoint_segments,
                  array.num_segments))
        self.reserve_phys = list(range(
            num_positions + 1,
            array.num_segments - checkpoint_segments))
        #: Where host flushes get their epochs; None falls back to a
        #: private counter so a standalone store still stamps correctly.
        self.epoch_source = epoch_source
        self._epoch_counter = 1
        #: Write epoch of each logical page's current flash copy.
        self.page_epochs: List[int] = [0] * num_logical_pages
        #: Global program sequence counter (every OOB stamp takes one).
        self.seq_counter = 0
        #: Stamping switch; on by default (stamps are free in the timing
        #: model — the OOB shares the program cycle).
        self.stamp_oob = True
        #: Callbacks ``(logical_page, position, slot, epoch)`` fired, in
        #: registration order, after a stamped host flush has landed in
        #: flash and its bookkeeping is done; the controller mirrors
        #: epochs into the SRAM page table here, the chaos harness's
        #: commit oracle records the committed bytes.
        self.program_listeners: List = []
        #: Crash-consistent mode: keep the last *flushed* copy of a
        #: buffered page alive in flash until its successor flushes.
        #: Without this, cleaning a segment can destroy the only durable
        #: version of a page whose newer contents sit in SRAM — fatal
        #: under full SRAM loss, invisible under the paper's
        #: battery-backed model.  Off by default so the paper-faithful
        #: configurations behave (and time) exactly as before.
        self.preserve_flushed_copies = False
        #: logical page -> (position, slot) of its last flushed copy,
        #: tracked only while the page is buffered (SRAM-resident).
        self.flush_shadows: Dict[int, Tuple[int, int]] = {}
        #: Dead-copy preservation programs performed by clean().
        self.rescue_count = 0
        #: Battery-backed :class:`~repro.faults.badblocks.BadBlockTable`
        #: recording retirements; None disables retirement (a permanent
        #: erase failure then propagates to the caller).
        self.bad_blocks = bad_blocks
        if bad_blocks is not None:
            bad_blocks.provision(self.reserve_phys)
        #: Data for pages detached by pop_live, awaiting re-programming.
        self._pending_data: Dict[int, Optional[bytes]] = {}
        #: Callbacks invoked with (position, physical_segment) just
        #: before a segment's contents are destroyed by erase.  The
        #: transaction extension (Section 6) uses this to rescue shadow
        #: copies that are still needed for rollback.
        self.pre_erase_hooks: List = []
        #: Optional battery-backed cleaning journal (Section 3.4); when
        #: set, clean() records its phases so a power failure at any
        #: Flash operation is recoverable (see repro.core.recovery).
        self.journal = None

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------

    def read_page_data(self, logical_page: int) -> Optional[bytes]:
        """Bytes of a Flash-resident logical page (None = never written)."""
        loc = self.page_location[logical_page]
        if loc is None or loc == (-1, -1):
            raise StoreError(
                f"page {logical_page} is not resident in Flash")
        position, slot = loc
        phys = self.positions[position].phys
        return self.array.read_page(phys, slot)

    # ------------------------------------------------------------------
    # OOB stamping
    # ------------------------------------------------------------------

    def _new_epoch(self) -> int:
        if self.epoch_source is not None:
            return self.epoch_source()
        epoch = self._epoch_counter
        self._epoch_counter += 1
        return epoch

    def _data_oob(self, logical_page: int, pos_index: int,
                  data: Optional[bytes], epoch: int) -> Optional[bytes]:
        """Build the spare-area stamp for one data program."""
        if not self.stamp_oob:
            return None
        seq = self.seq_counter
        self.seq_counter += 1
        return pack_oob(OobRecord(DATA, logical_page, epoch, seq,
                                  pos_index, payload_crc(data)))

    # ------------------------------------------------------------------
    # Mirrored operations
    # ------------------------------------------------------------------

    def stage_data(self, logical_page: int, data: Optional[bytes]) -> None:
        """Provide the payload for the next program of ``logical_page``.

        The controller stages buffer contents here before asking the
        cleaning policy to place the flush; whichever position the
        policy appends to receives these bytes.
        """
        self._pending_data[logical_page] = data

    def append(self, pos_index: int, logical_page: int,
               count_as_flush: bool = True,
               data: Optional[bytes] = None) -> None:
        if data is None:
            data = self._pending_data.get(logical_page)
        phys = self.positions[pos_index].phys
        epoch = self._new_epoch() if self.stamp_oob else 0
        self.array.program_page(
            phys, data,
            oob=self._data_oob(logical_page, pos_index, data, epoch))
        # Consume the staged bytes only after the program committed, so
        # a power failure mid-program still finds them for recovery.
        self._pending_data.pop(logical_page, None)
        super().append(pos_index, logical_page, count_as_flush)
        self.flush_shadows.pop(logical_page, None)
        if self.stamp_oob:
            self.page_epochs[logical_page] = epoch
            slot = len(self.positions[pos_index].slots) - 1
            for listener in self.program_listeners:
                listener(logical_page, pos_index, slot, epoch)

    def _kill(self, loc) -> None:
        position, slot = loc
        phys = self.positions[position].phys
        self.array.invalidate_page(phys, slot)
        super()._kill(loc)

    def buffer_page(self, logical_page: int):
        if self.preserve_flushed_copies:
            loc = self.page_location[logical_page]
            if loc is not None and loc != IN_BUFFER:
                # The flash copy being superseded is the page's newest
                # durable version; remember it so clean() keeps it alive
                # until the buffered successor flushes.
                self.flush_shadows[logical_page] = loc
        return super().buffer_page(logical_page)

    def pop_live(self, pos_index: int, from_end: bool) -> Optional[int]:
        pos = self.positions[pos_index]
        if pos.live_count == 0:
            return None
        # Find the victim the same way the parent will, to read its data
        # before the location is cleared.
        indices = (range(len(pos.slots) - 1, -1, -1) if from_end
                   else range(len(pos.slots)))
        for slot in indices:
            page = pos.slots[slot]
            if self.page_location[page] == (pos_index, slot):
                self._pending_data[page] = self.array.read_page(pos.phys,
                                                                slot)
                self.array.invalidate_page(pos.phys, slot)
                break
        return super().pop_live(pos_index, from_end)

    def receive(self, pos_index: int, logical_page: int,
                demote: bool = False) -> None:
        data = self._pending_data.get(logical_page)
        phys = self.positions[pos_index].phys
        # A transfer is a copy, not a new version: same epoch, new seq.
        self.array.program_page(
            phys, data,
            oob=self._data_oob(logical_page, pos_index, data,
                               self.page_epochs[logical_page]))
        self._pending_data.pop(logical_page, None)
        super().receive(pos_index, logical_page, demote)

    def clean(self, pos_index: int,
              prepend: Optional[List[int]] = None) -> int:
        """Physically copy survivors to the spare, then mirror the store.

        The program order must match the order the parent class will
        record: prepended pages first, then demoted survivors, then the
        remaining survivors in slot order.  Choosing the order *while*
        programming the fresh segment is exactly what real cleaning
        hardware does; the data just has to be read out before the old
        copies are invalidated.
        """
        pos = self.positions[pos_index]
        old_phys = pos.phys
        new_phys = self.spare_phys
        if not self.array.segment(new_phys).is_erased:
            raise StoreError(f"spare segment {new_phys} is not erased")
        if self.journal is not None:
            # Section 3.4: the clean's phase is journalled in persistent
            # memory.  Until commit, the old segment and the page table
            # are untouched (shadow paging), so a crash during the copy
            # only wastes the spare.
            self.journal.begin(pos_index, old_phys, new_phys)
        survivor_pairs = [(slot, page) for slot, page in enumerate(pos.slots)
                          if self.page_location[page] == (pos_index, slot)]
        ordered = [page for _, page in survivor_pairs]
        if pos.demoted:
            demoted = [p for p in ordered if p in pos.demoted]
            if demoted:
                ordered = demoted + [p for p in ordered
                                     if p not in pos.demoted]
        data_by_page = {page: self.array.read_page(old_phys, slot)
                        for slot, page in survivor_pairs}
        # Cleaner copies preserve each page's epoch: the shadow copy is
        # the same version, so if the clean never commits (power loss
        # before the old segment is invalidated) recovery's tie-break —
        # equal epoch, lowest seq wins — resolves to the originals and
        # the uncommitted clean simply never happened.
        for page in (prepend or ()):
            pdata = self._pending_data.get(page)
            self.array.program_page(
                new_phys, pdata,
                oob=self._data_oob(page, pos_index, pdata,
                                   self.page_epochs[page]))
            self._pending_data.pop(page, None)
        for page in ordered:
            self.array.program_page(
                new_phys, data_by_page[page],
                oob=self._data_oob(page, pos_index, data_by_page[page],
                                   self.page_epochs[page]))
        # Crash-consistent mode: dead slots holding the newest *flushed*
        # copy of a currently-buffered page are copied too — dead in the
        # bookkeeping, but the only durable version of their page.  They
        # ride at the tail of the fresh segment, immediately marked
        # superseded, and win the recovery scan only if the buffered
        # successor never makes it to flash.
        rescues = []
        if self.preserve_flushed_copies and self.flush_shadows:
            for slot, page in enumerate(pos.slots):
                if self.flush_shadows.get(page) == (pos_index, slot):
                    rescues.append((page, self.array.read_page(old_phys,
                                                               slot)))
            total = len(prepend or ()) + len(ordered) + len(rescues)
            if total > pos.capacity:
                raise StoreError(
                    f"position {pos_index} cannot preserve {len(rescues)} "
                    f"flushed copies: segment capacity exceeded")
            for page, rdata in rescues:
                self.array.program_page(
                    new_phys, rdata,
                    oob=self._data_oob(page, pos_index, rdata,
                                       self.page_epochs[page]))
                tail = self.array.segment(new_phys).write_pointer - 1
                self.array.invalidate_page(new_phys, tail)
            if rescues:
                self.rescue_count += len(rescues)
                if self.observer is not None:
                    self.observer("rescue", pos_index, len(rescues))
        for slot, _ in survivor_pairs:
            self.array.invalidate_page(old_phys, slot)
        copies = super().clean(pos_index, prepend)
        for page, _ in rescues:
            pos.slots.append(page)
            self.flush_shadows[page] = (pos_index, len(pos.slots) - 1)
        if self.journal is not None:
            # The remap is now the truth; only the bulk erase remains.
            self.journal.commit()
        for hook in self.pre_erase_hooks:
            hook(pos_index, old_phys)
        self.erase_phys(old_phys)
        if self.journal is not None:
            self.journal.clear()
        return copies

    # ------------------------------------------------------------------
    # Bad-block retirement
    # ------------------------------------------------------------------

    def erase_phys(self, phys: int) -> int:
        """Erase ``phys``, retiring it if the erase fails permanently.

        Every caller erases the segment that is (or is about to become)
        the spare, so retirement never moves data: the failing segment
        drops out of the rotation and a reserve segment — factory-erased,
        so immediately usable — takes its place as the spare.  Returns
        the physical id that ended up as the erased spare.

        Raises :class:`~repro.cleaning.store.StoreError` when the
        reserve pool is exhausted (capacity can no longer be maintained)
        and re-raises :class:`~repro.flash.errors.BadBlockError` when no
        bad-block table was provided.
        """
        try:
            self.array.erase_segment(phys)
            return phys
        except BadBlockError as exc:
            if self.bad_blocks is None:
                raise
            replacement = self.bad_blocks.retire(phys, exc.reason)
            if replacement is None:
                raise StoreError(
                    f"segment {phys} failed ({exc.reason}) and the "
                    f"reserve pool is exhausted") from exc
            self.retired_phys.add(phys)
            self.reserve_phys.remove(replacement)
            # Active membership changed without an erase-count tick;
            # drop the store's active/wear caches.
            self._derived_version += 1
            self._active_key = None
            self._wear_key = None
            if self.spare_phys == phys:
                self.spare_phys = replacement
            self.array.fault_stats.bad_blocks_retired += 1
            self.array.emit_fault("bad_block_retired", phys,
                                  f"replacement={replacement}")
            return replacement

    def verify_against_array(self) -> None:
        """Cross-check placement bookkeeping against the Flash array.

        Used by the integration tests: every live store slot must be a
        VALID page in the matching physical segment, and write pointers
        must agree.
        """
        from ..flash.segment import PageState

        for pos in self.positions:
            segment = self.array.segment(pos.phys)
            if segment.write_pointer != len(pos.slots):
                raise StoreError(
                    f"position {pos.index}: write pointer drift "
                    f"({segment.write_pointer} != {len(pos.slots)})")
            if segment.live_count != pos.live_count:
                raise StoreError(
                    f"position {pos.index}: live-count drift "
                    f"({segment.live_count} != {pos.live_count})")
            for slot, page in enumerate(pos.slots):
                live = self.page_location[page] == (pos.index, slot)
                state = segment.states[slot]
                expected = PageState.VALID if live else PageState.INVALID
                if state is not expected:
                    raise StoreError(
                        f"position {pos.index} slot {slot}: store says "
                        f"{'live' if live else 'dead'}, array says "
                        f"{state.name}")
        spare = self.array.segment(self.spare_phys)
        if not spare.is_erased:
            raise StoreError("spare segment is not erased")
