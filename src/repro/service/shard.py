"""Shard router: one logical page space over many eNVy banks.

The paper's controller fronts a single Flash array behind one memory
bus.  Scaling past a single bank means running several independent
controllers — each with its own bus, SRAM write buffer, page table and
cleaner — and partitioning the logical page space across them, exactly
as eNVy itself partitions a bank into segments.  :class:`ShardRouter`
is the service's one router; it implements that partitioning:

* **Striped placement** (default) — logical page ``p`` lives on shard
  ``p % num_shards`` at local page ``p // num_shards``.  Striping
  spreads any contiguous hot range (and any Zipf head, whatever the
  scatter permutation) evenly across shards, so tenant skew degrades
  into per-shard load imbalance only at the granularity of single
  pages.
* **Ranged placement** (``placement="ranged"``) — page ``p`` lives on
  shard ``p // pages_per_shard`` at local page ``p % pages_per_shard``:
  each shard owns one contiguous range.  Ranged placement concentrates
  contiguous hot sets onto single banks — the worst case striping was
  designed to avoid — and exists precisely to *create* the skew that
  hot-page rebalancing (:func:`~repro.service.redundancy.
  plan_rebalance`) then repairs by remapping.
* **Redundancy and remap** — every router carries a
  :class:`~repro.service.redundancy.RedundancyPolicy` (``none`` by
  default: the placements above) that picks the replica or parity
  slots a write also programs and the fallback groups of a read on a
  lost bank, and a sparse remap overlay (SoftWear-style, a plain table
  update) that :meth:`ShardRouter.swap` moves hot pages with.  The
  router only names candidates; :func:`~repro.service.redundancy.
  io_plan` picks among them by bank state, the one decision both the
  schedule expander and direct access follow.
* **Shard independence** — every slot belongs to one shard, so shard
  request streams can be executed in any order, in any process, and
  recombined deterministically (the property :mod:`repro.service.
  frontend` builds its ``run_sweep`` fan-out on, and :mod:`repro.
  service.chaos` its independent per-shard recovery).

The router is pure arithmetic: it holds no controller references and
pickles trivially into sweep workers.  :meth:`ShardRouter.slot_table`
caches it per page, the table the front-end routes every request by.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from .loadgen import _typecode
from .redundancy import (DegradedModeError, MirrorPolicy, NoRedundancy,
                         RedundancyPolicy, Slot)

__all__ = ["ShardRouter"]


class ShardRouter:
    """Maps the global logical page space onto shard-local slots."""

    __slots__ = ("num_shards", "pages_per_shard", "page_bytes",
                 "num_pages", "placement", "policy", "_table", "_remap",
                 "_inverse")

    def __init__(self, num_shards: int, pages_per_shard: int,
                 page_bytes: int = 256, placement: str = "striped",
                 policy: Optional[RedundancyPolicy] = None) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if pages_per_shard < 1:
            raise ValueError("shards need at least one page")
        if page_bytes < 1:
            raise ValueError("page_bytes must be positive")
        if placement not in ("striped", "ranged"):
            raise ValueError(f"unknown placement {placement!r}")
        self.policy = policy or NoRedundancy()
        if placement == "ranged" and self.policy.name == "parity":
            raise ValueError("parity striping requires striped placement")
        self.policy.validate(num_shards, pages_per_shard)
        self.num_shards = num_shards
        self.pages_per_shard = pages_per_shard
        self.page_bytes = page_bytes
        self.placement = placement
        #: Logical pages presented by the whole service.
        self.num_pages = self.policy.usable_pages(num_shards,
                                                  pages_per_shard)
        self._table = None
        #: Rebalancing overlay: logical page -> placement-owner page,
        #: with its inverse, so an unremapped page costs one dict miss.
        self._remap: Dict[int, int] = {}
        self._inverse: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.num_pages:
            raise IndexError(
                f"page {page} outside the {self.num_pages}-page service "
                f"address space")

    def route(self, page: int) -> Slot:
        """Global page -> its primary ``(shard_index, local_page)``."""
        self._check_page(page)
        return self.policy.data_slot(self._remap.get(page, page),
                                     self.num_shards, self.pages_per_shard,
                                     self.placement)

    def placements(self, page: int) -> List[Slot]:
        """Every slot a write to ``page`` must program, primary first."""
        primary = self.route(page)
        return [primary] + self.policy.extra_slots(
            primary, self.num_shards, self.pages_per_shard)

    def read_groups(self, page: int) -> List[List[Slot]]:
        """Degraded-read source groups for ``page`` (see the policy)."""
        return self.policy.read_groups(self.route(page), self.num_shards,
                                       self.pages_per_shard)

    def slot_table(self) -> Tuple[array, array]:
        """Every page's :meth:`route`, as ``(bank, local)`` array columns
        indexed by page; built on first use, kept current by ``swap``."""
        if self._table is None:
            size = self.num_pages
            bank = array(_typecode(self.num_shards), [0]) * size
            local = array(_typecode(self.pages_per_shard), [0]) * size
            for page in range(size):
                bank[page], local[page] = self.route(page)
            self._table = bank, local
        return self._table

    def global_page(self, shard_index: int, local_page: int) -> int:
        """Strict inverse of :meth:`route` (primary data slots only)."""
        if not 0 <= shard_index < self.num_shards:
            raise IndexError(f"no shard {shard_index}")
        if not 0 <= local_page < self.pages_per_shard:
            raise IndexError(
                f"local page {local_page} outside shard "
                f"{shard_index}'s {self.pages_per_shard} pages")
        page = self.page_of_slot((shard_index, local_page))
        if page is None or self.route(page) != (shard_index, local_page):
            raise IndexError(f"slot ({shard_index}, {local_page}) holds "
                             f"no primary data copy")
        return page

    def page_of_slot(self, slot: Slot) -> Optional[int]:
        """Logical page whose content lives in ``slot`` (any copy)."""
        owner = self.policy.page_of_slot(slot, self.num_shards,
                                         self.pages_per_shard,
                                         self.placement)
        if owner is None or owner >= self.num_pages:
            return None
        return self._inverse.get(owner, owner)

    @property
    def is_plain(self) -> bool:
        """True when routing is plain striping — no redundancy, no
        ranged placement, no remap: the front-end's licence to run
        without overhead pseudo-tenants."""
        return (self.policy.name == "none"
                and self.placement == "striped" and not self._remap)

    @property
    def total_bytes(self) -> int:
        """Bytes of linear memory presented by the whole service."""
        return self.num_pages * self.page_bytes

    # ------------------------------------------------------------------
    # Rebalancing remap
    # ------------------------------------------------------------------

    @property
    def remapped_pages(self) -> int:
        return len(self._remap)

    def swap(self, page_a: int, page_b: int) -> None:
        """Exchange the placements of two logical pages.

        Swapping keeps the remap a permutation by construction — no
        page ever loses its slot, so capacity accounting and rebuild
        plans stay exact however many swaps accumulate.
        """
        self._check_page(page_a)
        self._check_page(page_b)
        if page_a == page_b:
            return
        owner_a = self._remap.get(page_a, page_a)
        owner_b = self._remap.get(page_b, page_b)
        for page, owner in ((page_a, owner_b), (page_b, owner_a)):
            if page == owner:
                self._remap.pop(page, None)
                self._inverse.pop(owner, None)
            else:
                self._remap[page] = owner
                self._inverse[owner] = page
        if self._table is not None:
            for page in (page_a, page_b):
                self._table[0][page], self._table[1][page] = self.route(page)

    # ------------------------------------------------------------------
    # Rebuild plans
    # ------------------------------------------------------------------

    def rebuild_plan(self, bank: int) -> List[Dict]:
        """How to repopulate every slot of ``bank`` from its peers.

        Returns one entry per live slot, in local-page order:
        ``{"local", "groups", "page"}`` where ``groups`` are candidate
        source groups, each sufficient on its own (one per mirror copy,
        or the whole rest of a parity stripe, XORed), and ``page`` is
        the logical page served from the slot (``None`` for parity
        slots).  The rebuild reads the first group whose banks are all
        healthy (:meth:`~repro.service.redundancy.RebuildScheduler.
        sources`).  Raises :class:`~repro.service.redundancy.
        DegradedModeError` under ``none`` — there is nothing to rebuild
        from.
        """
        if not 0 <= bank < self.num_shards:
            raise IndexError(f"no bank {bank}")
        policy = self.policy
        if policy.name == "none":
            raise DegradedModeError(
                "cannot rebuild a bank without redundancy (policy "
                "'none' keeps a single copy of every page)")
        num_banks, pages = self.num_shards, self.pages_per_shard
        plan: List[Dict] = []
        if isinstance(policy, MirrorPolicy):
            region = pages // policy.copies
            for local in range(policy.copies * region):
                page = self.page_of_slot((bank, local))
                if page is None:
                    continue
                plan.append({"local": local, "groups": [
                    [slot] for slot in self.placements(page)
                    if slot != (bank, local)], "page": page})
        else:  # parity
            for local in range(pages):
                plan.append({"local": local, "groups": [[
                    (peer, local) for peer in range(num_banks)
                    if peer != bank]],
                    "page": self.page_of_slot((bank, local))})
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardRouter({self.num_shards} banks x "
                f"{self.pages_per_shard} pages, {self.placement}, "
                f"{self.policy.name}, {self.num_pages} logical pages, "
                f"{len(self._remap)} remapped)")
