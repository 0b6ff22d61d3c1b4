"""DRAM read-cache tier in front of the simulated Flash array.

eNVy's battery-backed SRAM buffer absorbs *writes*; every read still
pays the full memory-bus + Flash path (Section 5.1: 60 ns bus overhead
plus the Figure 1 Flash access).  The NVMM-survey framing (PAPERS.md)
puts a DRAM cache tier over the NVM in a hybrid hierarchy: hot pages
are served at DRAM speed (:data:`~repro.core.costmodel.DRAM_READ_NS`)
without crossing the eNVy bus at all.

:class:`PageCache` is that tier, as a deterministic data structure:

* **Pluggable policy** — ``"clock"`` (default; one reference bit per
  resident page, second-chance sweep with a persistent hand) or
  ``"lru"`` (exact recency order).  Both are pure functions of the
  access sequence, so cached runs stay bit-identical across reruns
  and ``--jobs``.
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
* **Optional payloads** — the shard executors only need presence (the
  timing model), while :class:`~repro.service.frontend.EnvyService`'s
  direct-access front door caches real page bytes.

Everything is counted (hits, misses, evictions, invalidations) for
``health_report()`` and the ``envy_cache_*`` Prometheus series.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional

from ..core.costmodel import DRAM_READ_NS

__all__ = ["PageCache", "CACHE_POLICIES", "DRAM_READ_NS"]

#: Supported replacement policies.
CACHE_POLICIES = ("clock", "lru")

# Entry layout: [owner, referenced_bit, payload].  A plain list keeps
# the hot lookup path allocation-free and fast to mutate.
_OWNER, _REF, _DATA = 0, 1, 2


class PageCache:
    """A deterministic CLOCK/LRU page cache with per-owner caps.

    ``capacity_pages`` bounds total residency; ``tenant_caps`` maps an
    owner id to the most pages that owner may hold at once (owners not
    in the map are uncapped).  ``capacity_pages == 0`` disables the
    cache: every lookup misses and admits are dropped.
    """

    __slots__ = ("capacity", "policy", "hits", "misses", "evictions",
                 "invalidations", "_entries", "_order", "_ring", "_hand",
                 "_owners", "_caps")

    def __init__(self, capacity_pages: int, policy: str = "clock",
                 tenant_caps: Optional[Mapping[int, int]] = None) -> None:
        if capacity_pages < 0:
            raise ValueError("cache capacity cannot be negative")
        if policy not in CACHE_POLICIES:
            raise ValueError(f"unknown cache policy {policy!r}; "
                             f"choose from {CACHE_POLICIES}")
        self.capacity = capacity_pages
        self.policy = policy
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: page -> [owner, ref, data]
        self._entries: Dict[int, list] = {}
        #: LRU recency order (least recent first); unused under CLOCK.
        self._order: "OrderedDict[int, None]" = OrderedDict()
        #: CLOCK ring in admission order; invalidated pages leave
        #: tombstones that the sweep discards lazily.
        self._ring: List[int] = []
        self._hand = 0
        #: owner -> pages in admission/recency order (oldest first).
        self._owners: Dict[int, "OrderedDict[int, None]"] = {}
        self._caps: Dict[int, int] = dict(tenant_caps or {})

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def lookup(self, page: int) -> Optional[list]:
        """Probe for ``page``; returns its entry on a hit, else None.

        A hit sets the CLOCK reference bit (or refreshes LRU recency)
        and counts; a miss only counts.  The returned entry's payload
        is ``entry[2]`` (None for presence-only entries).
        """
        entry = self._entries.get(page)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.policy == "lru":
            self._order.move_to_end(page)
            self._owners[entry[_OWNER]].move_to_end(page)
        else:
            entry[_REF] = 1
        return entry

    def admit(self, page: int, owner: int = 0,
              data: Optional[bytes] = None) -> Optional[int]:
        """Insert ``page`` for ``owner``, evicting if needed.

        Returns the evicted page (None when nothing was displaced).
        An owner at its occupancy cap evicts its own oldest page; the
        shared policy only runs when the cache as a whole is full.
        Re-admitting a resident page just refreshes its payload.
        """
        if self.capacity == 0:
            return None
        entry = self._entries.get(page)
        if entry is not None:
            if data is not None:
                entry[_DATA] = data
            if self.policy == "lru":
                self._order.move_to_end(page)
                self._owners[entry[_OWNER]].move_to_end(page)
            else:
                entry[_REF] = 1
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
        elif len(self._entries) >= self.capacity:
            evicted = (self._evict_clock() if self.policy == "clock"
                       else self._evict_lru())
        # _drop may have unregistered the owner's (now-empty) map —
        # re-resolve instead of trusting the reference from above.
        owned = self._owners.get(owner)
        if owned is None:
            owned = self._owners[owner] = OrderedDict()
        self._entries[page] = [owner, 0, data]
        owned[page] = None
        if self.policy == "lru":
            self._order[page] = None
        else:
            self._ring.append(page)
        return evicted

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def invalidate(self, page: int) -> bool:
        """Drop ``page`` (host write or cleaner copy moved its bytes)."""
        if page not in self._entries:
            return False
        self._drop(page)
        self.invalidations += 1
        return True

    def invalidate_all(self) -> int:
        """Flush the whole tier (bank loss, rebuild, rebalance)."""
        dropped = len(self._entries)
        self._entries.clear()
        self._order.clear()
        self._ring.clear()
        self._hand = 0
        self._owners.clear()
        self.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _drop(self, page: int) -> None:
        entry = self._entries.pop(page)
        owned = self._owners[entry[_OWNER]]
        del owned[page]
        if not owned:
            del self._owners[entry[_OWNER]]
        if self.policy == "lru":
            del self._order[page]
        # CLOCK: the ring slot becomes a tombstone, reclaimed in-sweep.

    def _evict_lru(self) -> int:
        victim = next(iter(self._order))
        self._drop(victim)
        self.evictions += 1
        return victim

    def _evict_clock(self) -> int:
        ring = self._ring
        entries = self._entries
        while True:
            if self._hand >= len(ring):
                self._hand = 0
            page = ring[self._hand]
            entry = entries.get(page)
            if entry is None:
                # Tombstone left by invalidate()/owner-cap eviction.
                del ring[self._hand]
                continue
            if entry[_REF]:
                entry[_REF] = 0
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
            "policy": self.policy,
            "occupancy": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __contains__(self, page: int) -> bool:
        return page in self._entries

    def __len__(self) -> int:
        return len(self._entries)
