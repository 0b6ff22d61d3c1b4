"""Translation cache in front of the page table (Section 5.1).

"A memory-management unit (MMU) acts as a cache of recently used mappings
to make this translation faster."  A hit costs nothing extra on top of the
data access; a miss adds one SRAM page-table read.  The cache must also be
kept coherent with the table: every copy-on-write and every cleaning
operation that moves a page invalidates (or refreshes) its cached entry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from .pagetable import Location, PageTable

__all__ = ["Mmu"]


class Mmu:
    """A small LRU cache of logical-page translations."""

    def __init__(self, page_table: PageTable, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("MMU cache needs at least one entry")
        self.page_table = page_table
        self.capacity = capacity
        self._cache: "OrderedDict[int, Location]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def translate_timed(self, logical_page: int
                        ) -> "tuple[Optional[Location], int]":
        """Translate and report the added latency (0 on a cache hit).

        This sits on the per-access hot path of the timed simulator.
        """
        cache = self._cache
        cached = cache.get(logical_page)
        if cached is not None:
            cache.move_to_end(logical_page)
            self.hits += 1
            return cached, 0
        self.misses += 1
        location = self.page_table.lookup(logical_page)
        if location is not None:
            cache[logical_page] = location
            if len(cache) > self.capacity:
                cache.popitem(last=False)
        return location, self.page_table.read_ns

    def hit_again(self, logical_page: int,
                  count: int) -> Optional[Location]:
        """Account ``count`` more translations of a page, if cached.

        The bulk form of ``count`` :meth:`translate_timed` hits: the
        entry becomes most recent and ``hits`` grows by ``count``.
        Returns None, with nothing accounted, when the page is not
        cached — each of those translations would be a miss, which only
        :meth:`translate_timed` prices.
        """
        cache = self._cache
        cached = cache.get(logical_page)
        if cached is not None:
            cache.move_to_end(logical_page)
            self.hits += count
        return cached

    # ------------------------------------------------------------------
    # Coherence
    # ------------------------------------------------------------------

    def update(self, logical_page: int, location: Location) -> None:
        """Write through: update the table and refresh the cached entry.

        Section 5.1: "When a copy-on-write is executed, the page table
        mapping is updated in parallel with the data transfer", so the
        update adds no latency of its own.
        """
        self.page_table.update(logical_page, location)
        if logical_page in self._cache:
            self._cache[logical_page] = location
            self._cache.move_to_end(logical_page)

    def flush(self) -> None:
        self._cache.clear()

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Mmu({len(self._cache)}/{self.capacity} entries, "
                f"hit rate {self.hit_rate():.2%})")
