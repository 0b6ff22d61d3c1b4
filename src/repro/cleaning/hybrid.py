"""Hybrid cleaning policy (Section 4.4).

"Several adjoining segments are gathered into a single partition.  The
locality gathering approach is used to manage pages between partitions,
while a FIFO cleaning order is used within each partition. ... Each write
gets flushed back to the same partition (not segment) it was read from,
where it is written sequentially into the active segment within the
partition."

The intuition (Section 4.4): locality gathering sorts the array by access
frequency; *within* a band of similar frequency accesses look uniform,
which FIFO handles at low cost.  Partition size trades the two effects —
Figure 9 sweeps it and finds 16 segments per partition best for a
128-segment array; 1 degenerates to pure locality gathering and 128 to
pure FIFO.

Between partitions the same transfer machinery as
:class:`~repro.cleaning.locality.LocalityGatheringPolicy` applies, at
partition granularity: page flows run from high freq x cost product
partitions to low ones (plus a small always-on ordering trickle), and an
under-used partition absorbs extra pages from a genuinely fuller
neighbour while it is cleaning.  Within a partition the FIFO rotation
mixes data of similar hotness, so incoming pages simply join the active
segment's tail; no demotion marks are needed (position inside a partition
does not encode hotness the way it does inside a single gathered
segment).
"""

from __future__ import annotations

from typing import List, Optional

from .base import CleaningPolicy

__all__ = ["HybridPolicy", "PartitionState"]


class PartitionState:
    """Per-partition FIFO cursor and locality-gathering statistics."""

    __slots__ = ("index", "members", "active", "next_victim", "clean_count",
                 "last_clean_seq", "avg_clean_interval", "product")

    def __init__(self, index: int, members: List[int]) -> None:
        self.index = index
        #: Position indices belonging to this partition (adjoining).
        self.members = members
        #: Position currently accepting sequential flushes.
        self.active = members[0]
        #: Offset into ``members`` of the next FIFO victim.
        self.next_victim = 1 % len(members)
        self.clean_count = 0
        self.last_clean_seq = 0
        self.avg_clean_interval: Optional[float] = None
        #: freq x cost product, by analogy with Section 4.3.
        self.product: Optional[float] = None


class HybridPolicy(CleaningPolicy):
    """FIFO inside partitions, locality gathering between partitions."""

    name = "hybrid"
    preferred_layout = "contiguous"

    def __init__(self, partition_segments: int = 16,
                 gather_pages: int = 1,
                 max_move_fraction: float = 0.25,
                 min_free_fraction: float = 0.02,
                 deadband: float = 0.30,
                 interval_alpha: float = 0.15) -> None:
        super().__init__()
        if partition_segments < 1:
            raise ValueError("partition_segments must be at least 1")
        if gather_pages < 0:
            raise ValueError("gather_pages cannot be negative")
        if not 0 <= deadband < 1:
            raise ValueError("deadband must be in [0, 1)")
        self.partition_segments = partition_segments
        self.gather_pages = gather_pages
        self.max_move_fraction = max_move_fraction
        self.min_free_fraction = min_free_fraction
        self.deadband = deadband
        self.interval_alpha = interval_alpha
        self.partitions: List[PartitionState] = []

    # ------------------------------------------------------------------

    def _on_attach(self) -> None:
        store = self._store
        k = self.partition_segments
        if store.num_positions % k:
            raise ValueError(
                f"{store.num_positions} segments do not divide into "
                f"partitions of {k}")
        capacity = store.pages_per_segment
        self._max_move = max(1, int(capacity * self.max_move_fraction))
        self._reserve = max(1, int(capacity * self.min_free_fraction))
        self.partitions = [
            PartitionState(i, list(range(i * k, (i + 1) * k)))
            for i in range(store.num_positions // k)
        ]

    def partition_of(self, position: int) -> PartitionState:
        return self.partitions[position // self.partition_segments]

    def partition_utilization(self, part: PartitionState) -> float:
        store = self._store
        live = sum(store.positions[m].live_count for m in part.members)
        capacity = len(part.members) * store.pages_per_segment
        return live / capacity

    # ------------------------------------------------------------------

    def flush(self, logical_page: int, origin: int) -> int:
        # Once per flushed page: no property or helper calls on the way
        # to append (``_store`` only runs, and raises, when unattached).
        store = self.store or self._store
        part = self.partitions[origin // self.partition_segments]
        pos = store.positions[part.active]
        if len(pos.slots) >= pos.capacity:
            self._clean_partition(part)
        store.append(part.active, logical_page)
        return part.active

    # ------------------------------------------------------------------
    # FIFO within the partition
    # ------------------------------------------------------------------

    def _clean_partition(self, part: PartitionState) -> None:
        store = self._store
        for _ in range(len(part.members) + 1):
            victim = part.members[part.next_victim]
            if victim == part.active and len(part.members) > 1:
                # Skip the active segment: it is the one we just filled.
                part.next_victim = (part.next_victim + 1) % len(part.members)
                victim = part.members[part.next_victim]
            utilization = store.positions[victim].utilization
            store.clean(victim)
            part.next_victim = (part.next_victim + 1) % len(part.members)
            part.active = victim
            self._update_stats(part, utilization)
            self._redistribute(part)
            if store.positions[part.active].free_slots > 0:
                return
        raise RuntimeError(
            f"partition {part.index} recovered no space in a full FIFO "
            f"cycle; its utilization is too high")

    def _update_stats(self, part: PartitionState, utilization: float) -> None:
        store = self._store
        interval = max(1, store.flush_count - part.last_clean_seq)
        if part.avg_clean_interval is None:
            part.avg_clean_interval = float(interval)
        else:
            a = self.interval_alpha
            part.avg_clean_interval = (a * interval
                                       + (1 - a) * part.avg_clean_interval)
        part.last_clean_seq = store.flush_count
        part.clean_count += 1
        if utilization < 1.0:
            cost = utilization / (1.0 - utilization)
        else:
            cost = float(store.pages_per_segment)
        part.product = cost / part.avg_clean_interval

    # ------------------------------------------------------------------
    # Locality gathering between partitions
    # ------------------------------------------------------------------

    def _redistribute(self, part: PartitionState) -> None:
        """Exchange pages with neighbour partitions after a clean.

        The just-cleaned segment plays the role the cleaned segment plays
        in Section 4.3: hot pages leave from its tail toward the hotter
        (lower) partition, cold pages leave from its head toward the
        colder one.  Flows run from high-product partitions to low, with
        the one-page ordering trickle always on; an under-utilised
        partition additionally absorbs pages from a genuinely fuller
        neighbour.
        """
        if len(self.partitions) < 2:
            return
        my_product = part.product if part.product is not None else 0.0
        my_util = self.partition_utilization(part)
        i = part.index
        for neighbour_index, hot_direction in ((i - 1, True), (i + 1, False)):
            if not 0 <= neighbour_index < len(self.partitions):
                continue
            other = self.partitions[neighbour_index]
            other_product = other.product
            rel = 0.0
            if other_product is not None and my_product + other_product > 0:
                rel = ((my_product - other_product)
                       / (my_product + other_product))
            # Push: ordering trickle plus product-driven shedding.
            n_push = self.gather_pages
            if rel > self.deadband:
                n_push += int(rel * self._max_move)
            self._push(part, other, n_push, from_end=hot_direction)
            # Pull: absorb from a fuller, higher-product neighbour.
            if (rel < -self.deadband
                    and self.partition_utilization(other) - my_util > 0.08):
                n_pull = int(-rel * self._max_move)
                self._pull(other, part, n_pull, hot_source=hot_direction)

    def _push(self, src: PartitionState, dst: PartitionState, want: int,
              from_end: bool) -> int:
        """Move pages from src's just-cleaned active segment into dst."""
        return self._move_pages(src.active, dst.active, want,
                                from_end=from_end)

    def _pull(self, src: PartitionState, dst: PartitionState, want: int,
              hot_source: bool) -> int:
        """Absorb pages from a neighbour partition into dst's active.

        A hotter source gives up its coldest data (the head of its oldest,
        next-to-clean segment); a colder source gives up its hottest (the
        tail of its active segment).
        """
        if hot_source:
            source_position = src.members[src.next_victim]
            from_end = False
        else:
            source_position = src.active
            from_end = True
        return self._move_pages(source_position, dst.active, want,
                                from_end=from_end)

    def _move_pages(self, src_pos: int, dst_pos: int, want: int,
                    from_end: bool) -> int:
        store = self._store
        dst = store.positions[dst_pos]
        src = store.positions[src_pos]
        moved = 0
        while (moved < want and src.live_count > 0
               and dst.free_slots > self._reserve):
            page = store.pop_live(src_pos, from_end=from_end)
            if page is None:
                break
            store.receive(dst_pos, page)
            moved += 1
        return moved
