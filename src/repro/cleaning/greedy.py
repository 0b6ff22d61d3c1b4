"""Greedy cleaning policy (Section 4.2).

"When there is no space to flush data, the cleaner chooses to clean the
segment with the most invalidated space, hoping to recover as much space
as possible.  After a cleaning operation, further writes are directed to
the free space in the newly cleaned segment until it is full, at which
time a new cleaning operation is started."

Unlike Sprite LFS's enhanced greedy cleaner, this one deliberately does
*no* age sorting and cleans one segment at a time — eNVy's segments are
too large and too few for multi-segment cleaning (Section 4.1).

As the paper observes, greedy degenerates to FIFO-like behaviour in
steady state: good for uniform access, increasingly poor as locality
rises because every segment ends up holding the same hot/cold mixture.
"""

from __future__ import annotations

from .base import CleaningPolicy

__all__ = ["GreedyPolicy"]


class GreedyPolicy(CleaningPolicy):
    """Flush to one active segment; clean the most-invalidated victim."""

    name = "greedy"
    preferred_layout = "sequential"

    def __init__(self) -> None:
        super().__init__()
        self._active = 0

    def _on_attach(self) -> None:
        store = self._store
        self._active = 0
        for pos in store.positions:
            if pos.free_slots > 0:
                self._active = pos.index
                return
        self._clean_next()

    def _clean_next(self) -> None:
        store = self._store
        # Most invalidated space == fewest live pages, lowest index
        # winning ties.
        best = store.min_live_position(exclude=self._active)
        if (best is None
                or store.positions[best].live_count
                >= store.pages_per_segment):
            raise RuntimeError(
                "greedy cleaner found no reclaimable space; the array is "
                "over-committed (utilization must stay below 100%)")
        store.clean(best)
        self._active = best

    def flush(self, logical_page: int, origin: int) -> int:
        store = self._store
        active = self._active
        if store.positions[active].free_slots == 0:
            self._clean_next()
            active = self._active
        store.append(active, logical_page)
        return active
