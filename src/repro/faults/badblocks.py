"""Battery-backed bad-block table with a reserve segment pool.

Grown bad blocks are the one Flash fault no retry can absorb: an erase
block that stops erasing is gone for good.  Real controllers keep a
small pool of spare erase blocks and a persistent table mapping retired
blocks to their replacements; eNVy's battery-backed SRAM (which already
holds the page table and cleaning journal, Sections 3.3-3.4) is the
natural home for that table.

The model keeps the mechanism minimal: physical segments beyond the
``positions + 1 spare`` geometry are provisioned as reserves, and
:meth:`retire` swaps one in when a segment fails.  Retirement always
happens at erase time — the failing segment has just been cleaned, so
its live data already moved through the existing copy-on-write
machinery and *no data motion is needed*; only the physical identity of
the cleaner's spare changes.  Like the rest of the battery-backed
state, the table survives :meth:`~repro.core.controller.EnvyController.
power_cycle`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["BadBlockTable"]


class BadBlockTable:
    """Maps retired physical segments to reasons; pools the reserves."""

    def __init__(self) -> None:
        #: Retired physical segment -> reason ("grown_bad", "permanent",
        #: "retry_exhausted", ...), in retirement order.
        self.retired: Dict[int, str] = {}
        #: Fresh physical segments available as replacements, FIFO.
        self.reserve: List[int] = []

    # ------------------------------------------------------------------

    def provision(self, phys_ids) -> None:
        """Add erased physical segments to the reserve pool."""
        for phys in phys_ids:
            if phys in self.retired:
                raise ValueError(f"segment {phys} is already retired")
            self.reserve.append(phys)

    def retire(self, phys: int, reason: str) -> Optional[int]:
        """Retire ``phys``; returns a replacement or None if none left."""
        if phys in self.retired:
            raise ValueError(f"segment {phys} is already retired")
        self.retired[phys] = reason
        replacement = self.reserve.pop(0) if self.reserve else None
        return replacement

    def mark_factory(self, phys: int,
                     need_replacement: bool = False) -> Optional[int]:
        """Record a factory bad-block mark found during the initial scan.

        Real parts ship with bad blocks already marked in the spare
        area; the controller's format-time scan folds them into this
        table before any data lands.  When the marked segment was part
        of the active geometry (a position, the spare, or a metadata
        segment), ``need_replacement=True`` draws a reserve segment for
        the caller to swap in; a mark inside the reserve pool itself
        just shrinks the pool.
        """
        if phys in self.retired:
            raise ValueError(f"segment {phys} is already retired")
        if phys in self.reserve:
            self.reserve.remove(phys)
        self.retired[phys] = "factory"
        replacement = None
        if need_replacement:
            replacement = self.reserve.pop(0) if self.reserve else None
        return replacement

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BadBlockTable({len(self.retired)} retired, "
                f"{len(self.reserve)} reserves)")
