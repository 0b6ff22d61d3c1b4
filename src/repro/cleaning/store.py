"""Fast page-mapped model of the Flash array for cleaning studies.

The cleaning experiments of Section 4 (Figures 6, 8, 9, 10) need millions
of page writes to reach steady state.  This module provides the
page-granularity state machine those experiments run on.  It models exactly the structure
the cleaning policies care about:

* *positions* — logical segment slots 0..N-1.  The locality-gathering
  policy sorts data hotness by position number ("migrate hot data towards
  the lower numbered segments", Section 4.3), so a position's identity
  must survive cleaning even though the data moves to a different
  physical segment each time.
* *physical segments* — N+1 of them; one is always kept erased as the
  cleaning target ("eNVy must always keep one segment completely erased
  between cleaning operations", Section 3.4).  Wear (erase cycles) is
  physical and follows the physical segment, which is what the
  wear-leveler equalises.
* append-only *slots* within a position, preserving program order — the
  cleaner relies on order ("when cleaning a segment, the order of the
  pages is maintained", Section 4.3) so hot data accumulates at the tail
  and cold data sinks to the head.

Invalidation is lazy: a slot's occupant is live if and only if the global
page-location table still points back at that slot.  Cleaning compacts
live slots in order onto the spare physical segment and erases the old
one.  Every mutation is counted so the simulator can report the paper's
cleaning-cost metric, and an optional observer receives (operation,
amount) callbacks so the timed simulator can charge wall-clock time.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, List, Optional, Tuple

__all__ = ["Position", "SegmentStore", "StoreError"]


class StoreError(RuntimeError):
    """Raised when an operation violates the store's invariants."""


class Position:
    """One logical segment: an ordered, append-only run of page slots."""

    __slots__ = ("index", "capacity", "slots", "live_count", "phys",
                 "demoted", "clean_count", "last_clean_seq",
                 "avg_clean_interval", "last_clean_utilization", "product")

    def __init__(self, index: int, capacity: int, phys: int) -> None:
        self.index = index
        self.capacity = capacity
        #: Logical page numbers in program order (may contain dead slots).
        self.slots: List[int] = []
        self.live_count = 0
        #: Physical segment currently backing this position.
        self.phys = phys
        #: Pages received from a hotter neighbour that belong at the cold
        #: head; the next clean re-homes them there (see receive()).
        self.demoted: set = set()
        # --- cleaning statistics used by locality gathering -----------
        self.clean_count = 0
        self.last_clean_seq = 0
        #: Exponentially weighted flushes-between-cleans.
        self.avg_clean_interval: Optional[float] = None
        self.last_clean_utilization = 0.0
        #: freq x cost product from the most recent clean (Section 4.3).
        self.product: Optional[float] = None

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.slots)

    @property
    def dead_slots(self) -> int:
        return len(self.slots) - self.live_count

    @property
    def utilization(self) -> float:
        return self.live_count / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Position({self.index}: live={self.live_count}"
                f"/{self.capacity}, wp={len(self.slots)}, "
                f"phys={self.phys})")


#: Observer signature: (event, position_index, amount).  Events are
#: "program", "clean_copy", "erase" and "transfer".
Observer = Callable[[str, int, int], None]

#: page_location value meaning "the live copy is in the SRAM buffer".
IN_BUFFER: Tuple[int, int] = (-1, -1)

_LIVE_COUNT = attrgetter("live_count")


class SegmentStore:
    """N logical positions over N+1 physical segments (one spare).

    Override points: a subclass that mirrors placement onto real media
    (:class:`repro.core.binding.BoundStore`) overrides ``_kill``,
    ``append``, ``buffer_page``, ``pop_live``, ``receive`` and ``clean``.
    This class and the cleaning policies reach those six only through
    ``self``/the store, never inlined into one another: every Flash copy
    superseded by ``append`` or ``buffer_page`` is announced by exactly
    one ``_kill``, and every copy detached for a transfer by exactly one
    ``pop_live``, so the mirror can invalidate the matching Flash page.
    """

    def __init__(self, num_positions: int, pages_per_segment: int,
                 num_logical_pages: int,
                 observer: Optional[Observer] = None) -> None:
        if num_positions < 2:
            raise ValueError("need at least two positions")
        if num_logical_pages > num_positions * pages_per_segment:
            raise ValueError("logical pages exceed array capacity")
        self.num_positions = num_positions
        self.pages_per_segment = pages_per_segment
        self.num_logical_pages = num_logical_pages
        self.positions = [Position(i, pages_per_segment, i)
                          for i in range(num_positions)]
        #: Physical erase-cycle counters; index num_positions is the spare.
        self.phys_erase_counts = [0] * (num_positions + 1)
        self.spare_phys = num_positions
        #: Physical segments retired as bad blocks (see repro.faults) —
        #: out of the cleaning rotation, excluded from wear accounting.
        self.retired_phys: set = set()
        #: Fresh physical segments held in reserve as replacements; they
        #: join the rotation only when a retirement swaps them in.
        self.reserve_phys: List[int] = []
        #: Physical segments dedicated to flash-resident metadata (page
        #: table checkpoints).  They never hold logical pages, so they
        #: are outside the cleaning rotation and its wear accounting.
        self.metadata_phys: set = set()
        #: Where each logical page's live copy is: (position, slot),
        #: IN_BUFFER, or None if never written.
        self.page_location: List[Optional[Tuple[int, int]]] = (
            [None] * num_logical_pages)
        self.observer = observer
        #: Relocation listeners: each is called with every logical page
        #: whose live Flash copy the cleaner physically moved (clean
        #: survivors, prepended transfers, receive()), in registration
        #: order; ``append`` to subscribe, ``remove`` to unsubscribe.  A
        #: read-cache tier invalidates entries through this.  The
        #: observer cannot serve that purpose because it only reports
        #: (operation, position, amount), never page identity.
        self.copy_listeners: List[Callable[[int], None]] = []
        # --- global counters (the cleaning-cost numerator/denominator) -
        self.flush_count = 0
        self.clean_copy_count = 0
        self.transfer_count = 0
        self.erase_count = 0
        #: Smoothing constant for per-position clean intervals.
        self.interval_alpha = 0.15
        # --- derived accounting, maintained incrementally --------------
        # Running totals make live_pages()/occupancy() O(1).  Any code
        # that mutates position/physical state directly (recovery,
        # snapshot restore) must call rebuild_derived() afterwards.
        self._live_total = 0
        self._slot_total = 0
        #: Bumped whenever the active-segment membership may have
        #: changed; keys the active_phys()/wear_spread() caches.
        self._derived_version = 0
        self._active_key = None
        self._active_cache: List[int] = []
        self._wear_key = None
        self._wear_value = 0

    def _notify_copies(self, pages) -> None:
        listeners = self.copy_listeners
        if listeners:
            for page in pages:
                for listener in listeners:
                    listener(page)

    # ------------------------------------------------------------------
    # Primitive operations
    # ------------------------------------------------------------------

    def min_live_position(self, exclude: int = -1) -> Optional[int]:
        """Lowest-indexed position with the fewest live pages.

        This is greedy's victim: most dead+free space == fewest live
        pages, ties broken by position index (``min`` keeps the first).
        ``exclude`` skips one position (the active segment).  Returns
        None when every position is excluded.  A plain scan: it runs
        once per greedy clean, i.e. once per segment's worth of flushes,
        over eNVy's few, large segments.
        """
        best = min((pos for pos in self.positions if pos.index != exclude),
                   key=_LIVE_COUNT, default=None)
        return None if best is None else best.index

    def rebuild_derived(self) -> None:
        """Recompute the incrementally maintained accounting from the
        positions.  Must be called after any direct mutation of position
        slots/live counts or the physical membership sets (recovery,
        snapshot restore)."""
        self._live_total = sum(pos.live_count for pos in self.positions)
        self._slot_total = sum(len(pos.slots) for pos in self.positions)
        self._derived_version += 1
        self._active_key = None
        self._wear_key = None

    def position_of(self, logical_page: int) -> Optional[int]:
        """Position currently holding the page (None if buffered/unborn)."""
        loc = self.page_location[logical_page]
        if loc is None or loc == IN_BUFFER:
            return None
        return loc[0]

    def is_live_slot(self, pos_index: int, slot: int) -> bool:
        page = self.positions[pos_index].slots[slot]
        return self.page_location[page] == (pos_index, slot)

    def append(self, pos_index: int, logical_page: int,
               count_as_flush: bool = True) -> None:
        """Program ``logical_page`` at the tail of a position.

        ``count_as_flush`` distinguishes useful writes (the denominator of
        the cleaning cost) from cleaner-initiated copies.
        """
        pos = self.positions[pos_index]
        slots = pos.slots
        slot = len(slots)
        if slot >= pos.capacity:
            raise StoreError(f"position {pos_index} has no free slots")
        page_location = self.page_location
        old = page_location[logical_page]
        if old is not None and old != IN_BUFFER:
            self._kill(old)
        page_location[logical_page] = (pos_index, slot)
        slots.append(logical_page)
        self._slot_total += 1
        pos.live_count += 1
        self._live_total += 1
        if pos.demoted:
            # A rewritten page is hot again; cancel any pending demotion.
            pos.demoted.discard(logical_page)
        if count_as_flush:
            self.flush_count += 1
            if self.observer is not None:
                self.observer("program", pos_index, 1)

    def buffer_page(self, logical_page: int) -> Optional[int]:
        """Move a page's live copy to the SRAM buffer (copy-on-write).

        Returns the position the Flash copy lived in (the page's origin)
        or None if the page had never been written.
        """
        loc = self.page_location[logical_page]
        origin: Optional[int] = None
        if loc is not None and loc != IN_BUFFER:
            origin = loc[0]
            self._kill(loc)
        self.page_location[logical_page] = IN_BUFFER
        return origin

    def _kill(self, loc: Tuple[int, int]) -> None:
        """Invalidate the Flash copy at ``loc`` (lazy: just drop liveness)."""
        pos = self.positions[loc[0]]
        if pos.live_count <= 0:
            raise StoreError(f"negative live count in position {loc[0]}")
        pos.live_count -= 1
        self._live_total -= 1

    # ------------------------------------------------------------------
    # Cleaning
    # ------------------------------------------------------------------

    def clean(self, pos_index: int,
              prepend: Optional[List[int]] = None) -> int:
        """Clean a position onto the spare physical segment.

        Copies the live pages (in order) to the spare, erases the old
        physical segment which becomes the new spare, and updates the
        position's cleaning statistics.  Returns the number of live pages
        copied (the cleaning-cost numerator contribution).

        ``prepend`` is a list of detached pages (from
        :meth:`pop_live` on other positions) written *before* the
        survivors — the cleaner uses this to place pages pulled from a
        hotter neighbour at the cold head of the fresh segment.  The
        program order of a segment is chosen while cleaning it, so this
        costs nothing extra physically; the copies are charged to the
        cleaning cost like any other cleaner program.
        """
        pos = self.positions[pos_index]
        survivors = [page for slot, page in enumerate(pos.slots)
                     if self.page_location[page] == (pos_index, slot)]
        if len(survivors) != pos.live_count:
            raise StoreError(
                f"position {pos_index} live-count drift: "
                f"{len(survivors)} != {pos.live_count}")
        if pos.demoted:
            # Re-home pages demoted from a hotter neighbour at the cold
            # head, preserving relative order within each group.
            demoted = [p for p in survivors if p in pos.demoted]
            if demoted:
                kept = [p for p in survivors if p not in pos.demoted]
                survivors = demoted + kept
            pos.demoted.clear()
        utilization = pos.live_count / pos.capacity
        # Swap physical segments: survivors land on the spare.
        old_phys = pos.phys
        pos.phys = self.spare_phys
        self.spare_phys = old_phys
        self.phys_erase_counts[old_phys] += 1
        self.erase_count += 1
        copies = len(survivors)
        old_slot_count = len(pos.slots)
        if prepend:
            if len(prepend) + copies > pos.capacity:
                raise StoreError(
                    f"position {pos_index} cannot absorb {len(prepend)} "
                    f"prepended pages")
            pos.slots = list(prepend) + survivors
            pos.live_count += len(prepend)
            self._live_total += len(prepend)
            self.clean_copy_count += len(prepend)
            self.transfer_count += len(prepend)
            if self.observer is not None:
                self.observer("transfer", pos_index, len(prepend))
        else:
            pos.slots = survivors
        self._slot_total += len(pos.slots) - old_slot_count
        for slot, page in enumerate(pos.slots):
            self.page_location[page] = (pos_index, slot)
        self._notify_copies(pos.slots)
        self.clean_copy_count += copies
        if self.observer is not None:
            self.observer("clean_copy", pos_index, copies)
            self.observer("erase", pos_index, 1)
        # --- statistics for the locality-gathering heuristic ----------
        interval = max(1, self.flush_count - pos.last_clean_seq)
        if pos.avg_clean_interval is None:
            pos.avg_clean_interval = float(interval)
        else:
            a = self.interval_alpha
            pos.avg_clean_interval = (a * interval
                                      + (1.0 - a) * pos.avg_clean_interval)
        pos.last_clean_seq = self.flush_count
        pos.last_clean_utilization = utilization
        pos.clean_count += 1
        if utilization < 1.0:
            cost = utilization / (1.0 - utilization)
        else:
            cost = float(pos.capacity)  # clamp the impossible case
        pos.product = cost / pos.avg_clean_interval
        return copies

    # ------------------------------------------------------------------
    # Page transfers between positions (locality gathering, Section 4.3)
    # ------------------------------------------------------------------

    def pop_live(self, pos_index: int, from_end: bool) -> Optional[int]:
        """Detach the hottest (tail) or coldest (head) live page.

        Returns the logical page, with its location cleared, or None if
        the position holds no live pages.  The caller must immediately
        re-home the page with :meth:`receive`.
        """
        pos = self.positions[pos_index]
        if pos.live_count == 0:
            return None
        indices = (range(len(pos.slots) - 1, -1, -1) if from_end
                   else range(len(pos.slots)))
        for slot in indices:
            page = pos.slots[slot]
            if self.page_location[page] == (pos_index, slot):
                pos.live_count -= 1
                self._live_total -= 1
                self.page_location[page] = None
                if pos.demoted:
                    pos.demoted.discard(page)
                return page
        raise StoreError(f"position {pos_index} claims live pages "
                         f"but none found")

    def receive(self, pos_index: int, logical_page: int,
                demote: bool = False) -> None:
        """Program a transferred page at the tail of a position.

        Transfer programs are cleaner overhead, so they are counted with
        the clean copies, not the flushes.

        ``demote`` marks a page that arrived from a *hotter* neighbour:
        physically it must be programmed at the tail like everything
        else, but logically it belongs at this segment's cold head, so
        the next clean re-homes it there instead of leaving it among the
        hot recent writes.  (One SRAM bit per transferred page; cleaning
        state is already kept in persistent memory, Section 3.4.)
        """
        pos = self.positions[pos_index]
        if pos.free_slots <= 0:
            raise StoreError(f"position {pos_index} cannot receive: full")
        pos.slots.append(logical_page)
        self._slot_total += 1
        pos.live_count += 1
        self._live_total += 1
        self.page_location[logical_page] = (pos_index, len(pos.slots) - 1)
        self._notify_copies((logical_page,))
        if demote:
            pos.demoted.add(logical_page)
        self.clean_copy_count += 1
        self.transfer_count += 1
        if self.observer is not None:
            self.observer("transfer", pos_index, 1)

    # ------------------------------------------------------------------
    # Initial population
    # ------------------------------------------------------------------

    def populate_sequential(self) -> None:
        """Lay logical pages out in order, filling positions head first.

        The natural state after a bulk load; used by the greedy and FIFO
        policies.
        """
        self._require_empty()
        pos_index = 0
        for page in range(self.num_logical_pages):
            if self.positions[pos_index].free_slots == 0:
                pos_index += 1
            self.append(pos_index, page, count_as_flush=False)

    def populate_contiguous(self) -> None:
        """Give each position an equal, *contiguous* run of logical pages.

        This is the layout a sequential bulk load produces: every
        position ends at the same utilization, and locality in the
        logical address space (e.g. a contiguous hot set) maps directly
        to locality across positions.  The locality-gathering policy
        starts from here, exactly as the real system would after loading
        a database.
        """
        self._require_empty()
        base, remainder = divmod(self.num_logical_pages, self.num_positions)
        page = 0
        for pos_index in range(self.num_positions):
            count = base + (1 if pos_index < remainder else 0)
            for _ in range(count):
                self.append(pos_index, page, count_as_flush=False)
                page += 1

    def populate_spread(self, rng=None) -> None:
        """Distribute logical pages evenly (and shuffled) over positions.

        Every position ends at the same utilization with a random mix of
        pages, so locality gathering has to discover hot data itself
        rather than inheriting a sorted layout.
        """
        self._require_empty()
        pages = list(range(self.num_logical_pages))
        if rng is not None:
            rng.shuffle(pages)
        for offset, page in enumerate(pages):
            self.append(offset % self.num_positions, page,
                        count_as_flush=False)

    def _require_empty(self) -> None:
        if any(pos.slots for pos in self.positions):
            raise StoreError("store already populated")

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------

    def cleaning_cost(self) -> float:
        """Cleaner program operations per flushed page (Section 4.1)."""
        if self.flush_count == 0:
            return 0.0
        return self.clean_copy_count / self.flush_count

    def reset_counters(self) -> None:
        """Zero the cost counters (called after warm-up)."""
        self.flush_count = 0
        self.clean_copy_count = 0
        self.transfer_count = 0
        self.erase_count = 0
        # wear_spread() keys its cache on erase_count; resetting the
        # counter would otherwise reuse stale entries.
        self._derived_version += 1
        self._wear_key = None

    def live_pages(self) -> int:
        return self._live_total

    def active_phys(self) -> List[int]:
        """Physical segments in the cleaning rotation, in id order.

        Excludes retired bad blocks and unprovisioned reserves, so the
        utilization and wear accounting track the array's *usable*
        capacity as it degrades.  Cached: retirement is rare, so the
        membership only changes when _derived_version (or a set size)
        does.  Callers must not mutate the returned list.
        """
        key = (self._derived_version, len(self.phys_erase_counts),
               len(self.retired_phys), len(self.reserve_phys),
               len(self.metadata_phys))
        if key != self._active_key:
            self._active_key = key
            self._active_cache = [
                phys for phys in range(len(self.phys_erase_counts))
                if phys not in self.retired_phys
                and phys not in self.reserve_phys
                and phys not in self.metadata_phys]
        return self._active_cache

    def utilization(self) -> float:
        """Live fraction of the usable array (spare included, like §4.1)."""
        total = len(self.active_phys()) * self.pages_per_segment
        return self._live_total / total

    def wear_spread(self) -> int:
        # Keyed on the erase counter: phys_erase_counts only changes
        # when a segment is erased (erase_count += 1) or on a rebuild.
        key = (self.erase_count, self._derived_version)
        if key != self._wear_key:
            counts = self.phys_erase_counts
            values = [counts[phys] for phys in self.active_phys()]
            self._wear_key = key
            self._wear_value = max(values) - min(values)
        return self._wear_value

    def occupancy(self) -> dict:
        """Gauges for the observability sampler: live/dead pages,
        utilization, and the per-position live fractions (heat data)."""
        return {
            "live_pages": self._live_total,
            "dead_pages": self._slot_total - self._live_total,
            "utilization": self.utilization(),
            "per_position_utilization":
                [p.utilization for p in self.positions],
        }

    def restore_layout(self, position_slots: List[List[int]],
                       position_phys: List[int],
                       page_location: List[Optional[Tuple[int, int]]],
                       spare_phys: int, retired_phys, reserve_phys,
                       phys_erase_counts: List[int]) -> None:
        """Install a layout reconstructed by a recovery scan or read
        from a snapshot.

        Replaces the slot runs, position ↔ physical mapping, page
        locations, retirement and reserve sets and physical erase counts
        wholesale; live counts are recomputed from the page locations
        (liveness is lazy, so they are the single source of truth).
        Counters, cleaning statistics and the metadata set are left for
        the caller to set — a scan recovers layout, not history.
        """
        if len(position_slots) != self.num_positions or \
                len(position_phys) != self.num_positions:
            raise StoreError("layout does not match the position count")
        if len(page_location) != self.num_logical_pages:
            raise StoreError("layout does not match the logical page count")
        if len(phys_erase_counts) != len(self.phys_erase_counts):
            raise StoreError("layout does not match the segment count")
        self.page_location = list(page_location)
        for pos, slots, phys in zip(self.positions, position_slots,
                                    position_phys):
            if len(slots) > pos.capacity:
                raise StoreError(f"position {pos.index} over capacity")
            pos.slots = list(slots)
            pos.phys = phys
            pos.demoted = set()
            pos.live_count = sum(
                1 for slot, page in enumerate(pos.slots)
                if self.page_location[page] == (pos.index, slot))
        self.spare_phys = spare_phys
        self.retired_phys = set(retired_phys)
        self.reserve_phys = list(reserve_phys)
        self.phys_erase_counts = list(phys_erase_counts)
        self.rebuild_derived()

    def check_invariants(self) -> None:
        """Expensive consistency check used by the property tests."""
        live_seen = [0] * self.num_positions
        for page, loc in enumerate(self.page_location):
            if loc is None or loc == IN_BUFFER:
                continue
            pos_index, slot = loc
            pos = self.positions[pos_index]
            if not (0 <= slot < len(pos.slots)) or pos.slots[slot] != page:
                raise StoreError(f"page {page} location {loc} is stale")
            live_seen[pos_index] += 1
        for pos in self.positions:
            if live_seen[pos.index] != pos.live_count:
                raise StoreError(
                    f"position {pos.index}: live_count={pos.live_count} "
                    f"but {live_seen[pos.index]} live slots found")
            if len(pos.slots) > pos.capacity:
                raise StoreError(f"position {pos.index} over capacity")
        if self._live_total != sum(live_seen):
            raise StoreError(
                f"live total drift: running={self._live_total} "
                f"actual={sum(live_seen)}")
        if self._slot_total != sum(len(p.slots) for p in self.positions):
            raise StoreError("slot total drift")
        phys_in_use = [p.phys for p in self.positions] + [self.spare_phys]
        if sorted(phys_in_use) != self.active_phys():
            raise StoreError("physical segment mapping is not a bijection "
                             "onto the active segments")
