"""Shard router: one logical page space over many eNVy banks.

The paper's controller fronts a single Flash array behind one memory
bus.  Scaling past a single bank means running several independent
controllers — each with its own bus, SRAM write buffer, page table and
cleaner — and partitioning the logical page space across them, exactly
as eNVy itself partitions a bank into segments.  The router implements
that partitioning:

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
  the redundancy layer's hot-page rebalancing
  (:mod:`repro.service.redundancy`) then repairs by remapping.
* **Shard independence** — no page ever maps to two shards, so shard
  request streams can be executed in any order, in any process, and
  recombined deterministically (the property :mod:`repro.service.
  frontend` builds its ``run_sweep`` fan-out on, and :mod:`repro.
  service.chaos` its independent per-shard recovery).

The router is pure arithmetic: it holds no controller references and
pickles trivially into sweep workers.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["ShardRouter"]


class ShardRouter:
    """Maps the global logical page space onto shard-local pages."""

    __slots__ = ("num_shards", "pages_per_shard", "page_bytes",
                 "num_pages", "placement")

    def __init__(self, num_shards: int, pages_per_shard: int,
                 page_bytes: int = 256,
                 placement: str = "striped") -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if pages_per_shard < 1:
            raise ValueError("shards need at least one page")
        if page_bytes < 1:
            raise ValueError("page_bytes must be positive")
        if placement not in ("striped", "ranged"):
            raise ValueError(f"unknown placement {placement!r}")
        self.num_shards = num_shards
        self.pages_per_shard = pages_per_shard
        self.page_bytes = page_bytes
        self.placement = placement
        #: Logical pages presented by the whole service.
        self.num_pages = num_shards * pages_per_shard

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.num_pages:
            raise IndexError(
                f"page {page} outside the {self.num_pages}-page service "
                f"address space")

    def route(self, page: int) -> Tuple[int, int]:
        """Global page -> ``(shard_index, local_page)``."""
        self._check_page(page)
        if self.placement == "ranged":
            return page // self.pages_per_shard, page % self.pages_per_shard
        return page % self.num_shards, page // self.num_shards

    def global_page(self, shard_index: int, local_page: int) -> int:
        """Inverse of :meth:`route`."""
        if not 0 <= shard_index < self.num_shards:
            raise IndexError(f"no shard {shard_index}")
        if not 0 <= local_page < self.pages_per_shard:
            raise IndexError(
                f"local page {local_page} outside shard "
                f"{shard_index}'s {self.pages_per_shard} pages")
        if self.placement == "ranged":
            return shard_index * self.pages_per_shard + local_page
        return local_page * self.num_shards + shard_index

    @property
    def total_bytes(self) -> int:
        """Bytes of linear memory presented by the whole service."""
        return self.num_pages * self.page_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardRouter({self.num_shards} shards x "
                f"{self.pages_per_shard} pages, {self.placement})")
