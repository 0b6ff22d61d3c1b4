"""Sequential and strided write workloads.

Log appenders, circular buffers and file copies write sequentially; such
patterns are the best case for any log-style cleaner (whole segments
invalidate together, so cleaning recovers space nearly for free).  The
strided variant models column updates and RAID-style scatter.  Both
round out the workload suite alongside uniform/bimodal/Zipf and give
tests a fully deterministic reference pattern.
"""

from __future__ import annotations

from typing import Optional

from .base import WriteWorkload

__all__ = ["SequentialWorkload", "StridedWorkload"]


class SequentialWorkload(WriteWorkload):
    """Writes pages 0, 1, 2, ... wrapping at the end of the space."""

    label = "sequential"

    def __init__(self, num_pages: int, start: int = 0,
                 seed: Optional[int] = None) -> None:
        super().__init__(num_pages, seed)
        if not 0 <= start < num_pages:
            raise ValueError("start must be a valid page")
        self.start = start
        self._next = start

    def next_page(self) -> int:
        page = self._next
        self._next = (self._next + 1) % self.num_pages
        return page


class StridedWorkload(WriteWorkload):
    """Writes every ``stride``-th page, sweeping all residues.

    With a stride coprime to the page count this visits every page
    exactly once per cycle, in an order that defeats naive sequential
    prefetch while still being fully deterministic.
    """

    def __init__(self, num_pages: int, stride: int,
                 seed: Optional[int] = None) -> None:
        super().__init__(num_pages, seed)
        if stride < 1:
            raise ValueError("stride must be positive")
        self.stride = stride
        self.label = f"strided({stride})"
        self._position = 0
        self._residue = 0

    def next_page(self) -> int:
        page = (self._position + self._residue) % self.num_pages
        self._position += self.stride
        if self._position >= self.num_pages:
            self._position = 0
            self._residue = (self._residue + 1) % min(self.stride,
                                                      self.num_pages)
        return page
