"""DRAM read-cache tier in front of the simulated Flash array.

eNVy's battery-backed SRAM buffer absorbs *writes*; every read still
pays the full memory-bus + Flash path (Section 5.1: 60 ns bus overhead
plus the Figure 1 Flash access).  The NVMM-survey framing (PAPERS.md)
puts a DRAM cache tier over the NVM in a hybrid hierarchy: hot pages
are served at DRAM speed (:data:`~repro.core.costmodel.DRAM_READ_NS`)
without crossing the eNVy bus at all.

:class:`PageCache` is that tier, as a deterministic data structure:

* **CLOCK replacement** — one reference bit per resident page and a
  second-chance sweep with a persistent hand: a pure function of the
  access sequence, so cached runs stay bit-identical across reruns and
  ``--jobs``.
* **Per-owner occupancy caps** — an owner at its cap evicts its *own*
  oldest page instead of someone else's, so a ``squat``-style tenant
  cycling through a huge footprint cannot pin the shared cache
  (see repro.service.adversary).
* **Physical tagging** — entries are keyed by logical page but track
  the *Flash copy* of that page: a host write or a cleaner relocation
  invalidates the entry (the executor subscribes to
  ``SegmentStore.copy_listeners`` for the latter).  This keeps the
  cache honest as a hardware model; semantic transparency is proved
  by the property tests in tests/test_cache_admission.py.
* **Presence only** — the tier is a timing device: an entry records
  that a page is resident and who owns it, never its bytes, so a hit
  can change a latency but never a value.  The shard executor is its
  one user and probes ``entries`` directly (a hit sets the entry's
  ``REF`` bit).

Everything is counted (hits, misses, evictions, invalidations) for
``health_report()`` and the ``envy_cache_*`` Prometheus series.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional

from ..core.costmodel import DRAM_READ_NS

__all__ = ["PageCache", "DRAM_READ_NS", "REF"]

#: Entry layout: [owner, referenced_bit].  A plain list keeps the hot
#: probe path allocation-free and fast to mutate.
OWNER, REF = 0, 1


class PageCache:
    """A deterministic CLOCK page cache with per-owner caps.

    ``capacity_pages`` bounds total residency; ``tenant_caps`` maps an
    owner id to the most pages that owner may hold at once (owners not
    in the map are uncapped).  ``capacity_pages == 0`` disables the
    cache: it stays empty, admits are dropped.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions",
                 "invalidations", "entries", "_ring", "_hand", "_owners",
                 "_caps")

    def __init__(self, capacity_pages: int,
                 tenant_caps: Optional[Mapping[int, int]] = None) -> None:
        if capacity_pages < 0:
            raise ValueError("cache capacity cannot be negative")
        self.capacity = capacity_pages
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: page -> [owner, ref]; outside, only a hit's ``REF`` bit is set.
        self.entries: Dict[int, list] = {}
        #: CLOCK ring in admission order; invalidated pages leave
        #: tombstones that the sweep discards lazily.
        self._ring: List[int] = []
        self._hand = 0
        #: owner -> pages in admission order (oldest first).
        self._owners: Dict[int, "OrderedDict[int, None]"] = {}
        self._caps: Dict[int, int] = dict(tenant_caps or {})

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def admit(self, page: int, owner: int = 0) -> Optional[int]:
        """Insert ``page`` for ``owner``, evicting if needed.

        Returns the evicted page (None when nothing was displaced).
        An owner at its occupancy cap evicts its own oldest page; the
        shared CLOCK sweep only runs when the cache as a whole is full.
        Re-admitting a resident page just sets its reference bit.
        """
        if self.capacity == 0:
            return None
        entry = self.entries.get(page)
        if entry is not None:
            entry[REF] = 1
            return None
        evicted: Optional[int] = None
        owned = self._owners.get(owner)
        cap = self._caps.get(owner)
        if (cap is not None and owned is not None
                and len(owned) >= cap):
            if cap <= 0:
                return None
            evicted = next(iter(owned))
            self._drop(evicted)
            self.evictions += 1
        elif cap is not None and cap <= 0:
            return None
        elif len(self.entries) >= self.capacity:
            evicted = self._evict_clock()
        # _drop may have unregistered the owner's (now-empty) map —
        # re-resolve instead of trusting the reference from above.
        owned = self._owners.get(owner)
        if owned is None:
            owned = self._owners[owner] = OrderedDict()
        self.entries[page] = [owner, 0]
        owned[page] = None
        self._ring.append(page)
        return evicted

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, page: int) -> bool:
        """Drop ``page`` (host write or cleaner copy moved its bytes)."""
        if page not in self.entries:
            return False
        self._drop(page)
        self.invalidations += 1
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _drop(self, page: int) -> None:
        entry = self.entries.pop(page)
        owned = self._owners[entry[OWNER]]
        del owned[page]
        if not owned:
            del self._owners[entry[OWNER]]
        # The ring slot becomes a tombstone, reclaimed in-sweep.

    def _evict_clock(self) -> int:
        ring = self._ring
        entries = self.entries
        while True:
            if self._hand >= len(ring):
                self._hand = 0
            page = ring[self._hand]
            entry = entries.get(page)
            if entry is None:
                # Tombstone left by invalidate()/owner-cap eviction.
                del ring[self._hand]
                continue
            if entry[REF]:
                entry[REF] = 0
                self._hand += 1
                continue
            del ring[self._hand]
            self._drop(page)
            self.evictions += 1
            return page

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def owner_occupancy(self, owner: int) -> int:
        owned = self._owners.get(owner)
        return len(owned) if owned is not None else 0

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for shard results / ``health_report()``."""
        return {
            "capacity_pages": self.capacity,
            "policy": "clock",
            "occupancy": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __contains__(self, page: int) -> bool:
        return page in self.entries

    def __len__(self) -> int:
        return len(self.entries)
