"""Uniform random write workload (the "50/50" point of Figure 8)."""

from __future__ import annotations

from .base import WriteWorkload, randbelow

__all__ = ["UniformWorkload"]


class UniformWorkload(WriteWorkload):
    """Every logical page is equally likely to be written."""

    label = "uniform"

    def next_page(self) -> int:
        return randbelow(self.rng.getrandbits, self.num_pages)
