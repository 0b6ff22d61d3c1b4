"""Locality-gathering cleaning policy (Section 4.3).

Two cooperating mechanisms:

*Locality preservation* — every page flushed from the SRAM buffer returns
to the segment it was copied from, so segments keep a stable working set
and hot segments stay hot.

*Gathering and redistribution* — when a segment is cleaned, the cleaner
compares ``frequency-of-cleaning x cleaning-cost`` for that segment with
the average over all segments and transfers pages to/from its neighbours
to pull the product toward the average: "a segment that is used ten times
more often than another one should have one tenth its cleaning cost".
Transfers exploit the preserved program order inside a segment — data
near the tail is recently written (hot), data at the head has survived
many cleans (cold) — and always move hot pages toward segment 0 and cold
pages toward segment N-1, creating the multimodal hot/cold layout of
Figure 7.

Under a uniform workload every product is equal, no redistribution
happens, all segments sit at the global utilization, and the cost is
pinned at ``u/(1-u)`` (4 at 80%) — exactly the weakness Figure 8 shows
and the hybrid policy of Section 4.4 repairs.
"""

from __future__ import annotations

from .base import CleaningPolicy

__all__ = ["LocalityGatheringPolicy"]


class LocalityGatheringPolicy(CleaningPolicy):
    """Flush back to the origin segment; equalise freq x cost products."""

    name = "locality"
    preferred_layout = "contiguous"

    def __init__(self, gather_pages: int = 1,
                 max_move_fraction: float = 0.25,
                 min_free_fraction: float = 0.02,
                 deadband: float = 0.30) -> None:
        """
        Parameters
        ----------
        gather_pages:
            Pages exchanged with each neighbour on *every* clean
            regardless of the product balance.  This is the ordering
            current of Section 4.3 — hot pages off the tail toward
            segment 0, cold pages off the head the other way — kept to a
            trickle so it costs almost nothing under uniform access but
            steadily repairs any hot/cold mixing.
        max_move_fraction:
            Additional pages moved per clean to pull the segment's
            freq x cost product toward the average, scaled by the
            imbalance.
        min_free_fraction:
            Free slots every segment must retain after receiving pages,
            so flush-back and future cleans can always make progress.
        deadband:
            Relative product difference below which no product-driven
            transfer fires.  Products are noisy estimates; without a
            deadband, uniform workloads (where the true products are all
            equal) pay a steady tax of noise-driven transfers instead of
            the paper's fixed cost of 4.
        """
        super().__init__()
        if gather_pages < 0:
            raise ValueError("gather_pages cannot be negative")
        if not 0 <= deadband < 1:
            raise ValueError("deadband must be in [0, 1)")
        self.gather_pages = gather_pages
        self.max_move_fraction = max_move_fraction
        self.min_free_fraction = min_free_fraction
        self.deadband = deadband

    # ------------------------------------------------------------------

    def _on_attach(self) -> None:
        capacity = self._store.pages_per_segment
        self._gather = self.gather_pages
        self._max_move = max(1, int(capacity * self.max_move_fraction))
        self._reserve = max(1, int(capacity * self.min_free_fraction))

    def flush(self, logical_page: int, origin: int) -> int:
        store = self._store
        pos = store.positions[origin]
        if pos.free_slots == 0:
            self._clean_and_gather(origin)
            if pos.free_slots == 0:
                # The segment is packed solid with live data; shed pages
                # unconditionally, then clean again: shedding only kills
                # slots, and it takes an erase to reclaim them.
                self._force_shed(origin, self._reserve)
                store.clean(origin)
        store.append(origin, logical_page)
        return origin

    # ------------------------------------------------------------------
    # Redistribution heuristic
    # ------------------------------------------------------------------

    def _clean_and_gather(self, index: int) -> None:
        """Clean ``index``, then push pages toward lower-product neighbours.

        Implements the Section 4.3 transfer rule as flows from segments
        whose freq x cost product is high toward neighbours whose product
        is lower, which "brings their products closer to the average"
        from both sides and is stable (a segment that sheds pages lowers
        its own product and raises the receiver's).

        Source side follows the paper exactly: pages headed to the lower
        numbered (hotter) neighbour come off this segment's *tail*, pages
        headed up come off its *head*.  On the receive side a page can
        only be programmed at the tail; upward moves genuinely belong
        there (the sender's coldest pages rank with the receiver's
        hottest), while downward moves are marked *demoted* so the
        receiver's next clean re-homes them at its cold head.  Both
        directions therefore preserve the global hot-to-cold ordering.

        A one-page "gathering trickle" flows in both directions on every
        clean regardless of products, so the ordering keeps getting
        refined even at equilibrium.
        """
        store = self._store
        pos = store.positions[index]
        # --- pulls, planned before the clean so pages from the hotter
        # neighbour can be programmed first (at the cold head) ----------
        head_pull, tail_pull = self._pull_plan(index)
        head_pages = []
        if head_pull:
            for _ in range(head_pull):
                page = store.pop_live(index - 1, from_end=False)
                if page is None:
                    break
                head_pages.append(page)
        store.clean(index, prepend=head_pages)
        if tail_pull:
            for _ in range(tail_pull):
                if pos.free_slots <= self._reserve:
                    break
                page = store.pop_live(index + 1, from_end=True)
                if page is None:
                    break
                store.receive(index, page)
        # --- pushes toward lower-product neighbours + ordering trickle -
        product = pos.product if pos.product is not None else 0.0
        for neighbour, from_end in ((index - 1, True), (index + 1, False)):
            if not 0 <= neighbour < store.num_positions:
                continue
            other = store.positions[neighbour].product
            rel = 0.0
            if other is not None and product + other > 0:
                rel = (product - other) / (product + other)
            n_move = self._gather
            if rel > self.deadband:
                n_move += int(rel * self._max_move)
            self._push(index, neighbour, n_move, from_end=from_end)

    def _pull_plan(self, index: int) -> "tuple[int, int]":
        """Pages to absorb from each overloaded neighbour at this clean.

        A segment whose product is *below* a neighbour's is being cleaned
        too rarely for its cost — it has spare capacity in the product
        sense — so while it holds the spare segment it soaks up the
        neighbour's misfit pages: the hotter neighbour's head (programmed
        first, at this segment's cold head) and the colder neighbour's
        tail (programmed last, at its hot tail).  This is the fast path
        of the Section 4.3 redistribution: cold segments clean rarely,
        but each clean can absorb many pages at once.
        """
        store = self._store
        pos = store.positions[index]
        mine = pos.product
        if mine is None:
            return 0, 0
        room = pos.capacity - pos.live_count - self._reserve
        if room <= 0:
            return 0, 0
        pulls = [0, 0]
        for side, neighbour in enumerate((index - 1, index + 1)):
            if not 0 <= neighbour < store.num_positions:
                continue
            other_pos = store.positions[neighbour]
            other = other_pos.product
            if other is None or other + mine <= 0:
                continue
            # Products are noisy estimates; utilization is exact.  Only
            # absorb from a neighbour that is genuinely fuller, which
            # keeps uniform workloads (equal utilizations) pull-free and
            # prevents tug-of-war transfers between equals.
            if other_pos.utilization - pos.utilization < 0.08:
                continue
            rel = (other - mine) / (other + mine)
            if rel > self.deadband:
                pulls[side] = int(rel * self._max_move)
        total = pulls[0] + pulls[1]
        if total > room:
            scale = room / total
            pulls = [int(p * scale) for p in pulls]
        return pulls[0], pulls[1]

    def _push(self, src: int, dst: int, want: int, from_end: bool) -> int:
        """Move up to ``want`` live pages src -> dst (demote if downward)."""
        store = self._store
        dst_pos = store.positions[dst]
        src_pos = store.positions[src]
        demote = dst < src  # downward moves land at the cold head later
        moved = 0
        while (moved < want and src_pos.live_count > 0
               and dst_pos.free_slots > self._reserve):
            page = store.pop_live(src, from_end=from_end)
            if page is None:
                break
            store.receive(dst, page, demote=demote)
            moved += 1
        return moved

    def _force_shed(self, index: int, needed: int) -> None:
        """Evict pages from a solid segment so a flush can proceed."""
        store = self._store
        shed = 0
        for neighbour, from_end in ((index - 1, True), (index + 1, False)):
            if not 0 <= neighbour < store.num_positions:
                continue
            dst_pos = store.positions[neighbour]
            demote = neighbour < index
            while (shed < needed and dst_pos.free_slots > 0
                   and store.positions[index].live_count > 0):
                page = store.pop_live(index, from_end=from_end)
                if page is None:
                    break
                store.receive(neighbour, page, demote=demote)
                shed += 1
            if shed >= needed:
                return
        if shed == 0:
            raise RuntimeError(
                f"segment {index} is full and both neighbours have no "
                f"room; utilization is too high for locality gathering")
