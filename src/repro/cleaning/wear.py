"""Even-wear leveling (Section 4.3, last paragraph).

"eNVy keeps statistics on the number of program/erase cycles each segment
has been exposed to and when the oldest segment gets over 100 cycles
older than the youngest, a cleaning operation is initiated that swaps the
data in the two areas.  This leads to an even wearing of the segments."

Locality gathering deliberately cleans hot segments far more often than
cold ones, so without this swap the physical segments under hot data
would wear out years before the rest of the array.  Swapping parks the
cold data (which almost never forces an erase) on the most-cycled
physical segment, retiring it from the erase rotation.

The swap itself is implemented as two back-to-back cleaning operations:
clean the position on the worn segment (its data lands on the spare, the
worn segment is erased and becomes the spare), then clean the position on
the young segment (its cold data lands on the worn segment, and the young
segment becomes the new spare, rejoining the rotation).  The leveler
counts both cleans' copies (``swap_copies``): the untimed simulator
reports them beside the cleaning policy's cost, not inside it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .store import SegmentStore

__all__ = ["WearLeveler"]


class WearLeveler:
    """Swap data between the most- and least-cycled physical segments."""

    def __init__(self, threshold_cycles: int = 100,
                 cooldown_erases: int = 16) -> None:
        """
        Parameters
        ----------
        threshold_cycles:
            Erase-count spread that triggers a swap (100 in the paper).
        cooldown_erases:
            Minimum global erase operations between swaps, preventing a
            swap storm while the spread decays back under the threshold.
        """
        if threshold_cycles < 1:
            raise ValueError("threshold_cycles must be positive")
        if cooldown_erases < 0:
            raise ValueError(f"cooldown_erases cannot be negative: "
                             f"{cooldown_erases}")
        self.threshold_cycles = threshold_cycles
        self.cooldown_erases = cooldown_erases
        self.reset()

    def reset(self) -> None:
        """Forget every swap, with the store's counters: the next poll
        decides as a fresh leveler handed the same store would."""
        self.swap_count = 0
        self.swap_copies = 0
        self._last_swap_erase_count = -(10 ** 9)

    # ------------------------------------------------------------------

    def _extremes(self, store: SegmentStore) -> Tuple[int, int]:
        """Physical ids of the most- and least-cycled *active* segments.

        Retired bad blocks and unprovisioned reserves are outside the
        erase rotation, so leveling must not try to swap data onto them.
        """
        counts = store.phys_erase_counts
        active = store.active_phys()
        oldest = max(active, key=counts.__getitem__)
        youngest = min(active, key=counts.__getitem__)
        return oldest, youngest

    def _position_on(self, store: SegmentStore, phys: int) -> Optional[int]:
        for pos in store.positions:
            if pos.phys == phys:
                return pos.index
        return None  # the spare

    def maybe_level(self, store: SegmentStore) -> bool:
        """Swap if the wear spread exceeds the threshold; returns True if
        a swap was performed."""
        if (store.erase_count - self._last_swap_erase_count
                < self.cooldown_erases):
            return False
        if store.wear_spread() <= self.threshold_cycles:
            return False
        oldest, youngest = self._extremes(store)
        worn_position = self._position_on(store, oldest)
        young_position = self._position_on(store, youngest)
        if worn_position is None and young_position is None:
            return False
        copies_before = store.clean_copy_count
        if worn_position is not None:
            # Data off the worn segment; worn segment becomes the spare.
            store.clean(worn_position)
        if young_position is not None:
            # Cold data onto the worn (now spare) segment; the young
            # segment becomes the spare and rejoins the rotation.
            store.clean(young_position)
        self.swap_count += 1
        self.swap_copies += store.clean_copy_count - copies_before
        self._last_swap_erase_count = store.erase_count
        return True
