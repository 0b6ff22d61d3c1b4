"""Uniform random write workload (the "50/50" point of Figure 8)."""

from __future__ import annotations

from typing import List

from .base import WriteWorkload, randbelow

__all__ = ["UniformWorkload"]


class UniformWorkload(WriteWorkload):
    """Every logical page is equally likely to be written."""

    label = "uniform"

    def next_page(self) -> int:
        return randbelow(self.rng.getrandbits, self.num_pages)

    def next_pages(self, count: int) -> List[int]:
        getrandbits, num_pages = self.rng.getrandbits, self.num_pages
        return [randbelow(getrandbits, num_pages) for _ in range(count)]
