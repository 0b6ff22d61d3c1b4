"""Cleaning-policy interface (Section 4: "Cleaning Policy").

A cleaning policy answers the three questions of Section 4: *which*
segments to clean, *when* to clean them, and *where* to write new data.
It owns the placement of every page flushed from the SRAM write buffer
and initiates cleaning (via the store) whenever its chosen destination is
out of space.

Policies operate on a :class:`~repro.cleaning.store.SegmentStore`; the
same implementations drive both the untimed cost simulator (Figures 8-10)
and the timed TPC-A simulator (Figures 13-15).
"""

from __future__ import annotations

import abc
from typing import Optional

from .store import SegmentStore

__all__ = ["CleaningPolicy"]


class CleaningPolicy(abc.ABC):
    """Decides victim selection and flush placement for the cleaner."""

    #: Short name used in reports ("greedy", "fifo", "locality", "hybrid").
    name: str = "abstract"
    #: Initial data layout this policy assumes: "sequential" fills
    #: segments in order (greedy/FIFO); "spread" levels all segments to
    #: equal utilization (locality gathering and hybrid, which rely on
    #: per-segment free space).
    preferred_layout: str = "sequential"

    def __init__(self) -> None:
        self.store: Optional[SegmentStore] = None

    def attach(self, store: SegmentStore) -> None:
        """Bind the policy to a populated store."""
        self.store = store
        self._on_attach()

    def _on_attach(self) -> None:
        """Hook for subclasses to initialise placement state."""

    @abc.abstractmethod
    def flush(self, logical_page: int, origin: int) -> int:
        """Write one page from the buffer into Flash.

        ``origin`` is the position the page lived in when it was pulled
        into the SRAM buffer; the locality-aware policies flush it back
        near there (Section 4.3/4.4), the others ignore it.  Cleans as a
        side effect whenever the destination lacks space.  Returns the
        position written.
        """

    # Convenience accessors -------------------------------------------

    @property
    def _store(self) -> SegmentStore:
        if self.store is None:
            raise RuntimeError(f"policy {self.name!r} is not attached")
        return self.store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
