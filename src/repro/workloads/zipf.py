"""Zipf-distributed write workload.

The paper's locality axis is a two-level bimodal distribution, but real
storage traces skew continuously; Zipf is the standard model.  Useful
for checking that the cleaning policies' advantages do not depend on the
bimodal shape: locality gathering and hybrid should still beat greedy
once the skew is strong, with a smooth transition instead of Figure 8's
two-population steps.

Sampling uses the inverse-CDF over ranks with a precomputed cumulative
table (exact, O(log n) per draw), and ranks are scattered over the page
space with a fixed permutation so physical adjacency carries no hidden
meaning.

Both tables are pure functions of the workload's shape — the cumulative
table of ``(num_pages, skew)``, the permutation of ``num_pages`` — so
they are built once per shape and shared, as immutable tuples, by every
instance with that shape.  A thousand-tenant fleet has a handful of
shapes; building the tables per instance made schedule set-up
O(tenants × pages) instead of O(requests).
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from typing import List, Optional, Tuple

from .base import WriteWorkload

__all__ = ["ZipfWorkload"]

#: Shapes each memo keeps (least recently used dropped first).  A table
#: costs ~32 bytes per page, so the bound is what keeps a sweep over
#: many store sizes from pinning every size's tables for the life of
#: the process; fleets cycle through fewer shapes than this.
_MEMO_SHAPES = 8


# typed: an int skew sums exact integer powers, a float skew goes
# through libm pow — separate entries keep each bit-identical to what
# its caller always got.
@functools.lru_cache(maxsize=_MEMO_SHAPES, typed=True)
def _cumulative_weights(num_pages: int, skew: float) -> Tuple[float, ...]:
    """Running sum of ``1 / (rank+1)^skew``; the last entry is the total."""
    cumulative = []
    total = 0.0
    for rank in range(num_pages):
        total += 1.0 / (rank + 1) ** skew
        cumulative.append(total)
    return tuple(cumulative)


@functools.lru_cache(maxsize=_MEMO_SHAPES)
def _scatter_permutation(num_pages: int) -> Tuple[int, ...]:
    """The fixed rank -> page permutation for a ``num_pages`` space."""
    permutation = list(range(num_pages))
    random.Random(0xC0FFEE).shuffle(permutation)
    return tuple(permutation)


class ZipfWorkload(WriteWorkload):
    """Page i (by popularity rank) drawn with weight 1 / (i+1)^s."""

    def __init__(self, num_pages: int, skew: float = 1.0,
                 seed: Optional[int] = None,
                 scatter: bool = True) -> None:
        super().__init__(num_pages, seed)
        if not math.isfinite(skew):
            raise ValueError("skew must be finite")
        if skew < 0:
            raise ValueError("skew cannot be negative")
        self.skew = skew
        self.label = f"zipf({skew:g})"
        self._cumulative = _cumulative_weights(num_pages, skew)
        self._total = self._cumulative[-1]
        self._page_of_rank = (_scatter_permutation(num_pages)
                              if scatter else None)

    def next_page(self) -> int:
        point = self.rng.random() * self._total
        rank = bisect.bisect_left(self._cumulative, point)
        if rank >= self.num_pages:
            rank = self.num_pages - 1
        if self._page_of_rank is None:
            return rank
        return self._page_of_rank[rank]

    def next_pages(self, count: int) -> List[int]:
        uniform, total = self.rng.random, self._total
        cumulative, search = self._cumulative, bisect.bisect_left
        ranks = [search(cumulative, uniform() * total) for _ in range(count)]
        last = self.num_pages - 1
        if ranks and max(ranks) > last:
            ranks = [min(rank, last) for rank in ranks]
        if self._page_of_rank is None:
            return ranks
        return list(map(self._page_of_rank.__getitem__, ranks))
