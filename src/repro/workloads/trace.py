"""Replay a fixed page-write sequence.

Cleaning results are sensitive to the exact write sequence, so being
able to replay one bit-for-bit matters for debugging policies and for
comparing configurations on identical inputs.  The sequence itself comes
from a run trace (:meth:`repro.core.tracing.RunTrace.page_writes`, the
one on-disk record; the registry's ``trace:path=`` loads it) or from any
list of page numbers.
"""

from __future__ import annotations

from typing import Iterable

from ..core.tracing import TraceError
from .base import WriteWorkload

__all__ = ["TraceWorkload"]


class TraceWorkload(WriteWorkload):
    """Replays a fixed sequence of page references (cycling at the end)."""

    label = "trace"

    def __init__(self, num_pages: int, pages: Iterable[int],
                 cycle: bool = True) -> None:
        super().__init__(num_pages, seed=None)
        self.trace = list(pages)
        if not self.trace:
            raise ValueError("trace must contain at least one reference")
        for page in self.trace:
            if not 0 <= page < num_pages:
                raise ValueError(f"trace page {page} outside "
                                 f"0..{num_pages - 1}")
        self.cycle = cycle
        self._cursor = 0

    def next_page(self) -> int:
        if self._cursor >= len(self.trace):
            if not self.cycle:
                # Not StopIteration: a driver iterating draws would take
                # it for the end of its own loop and stop short, silently.
                raise TraceError(
                    f"trace exhausted: all {len(self.trace)} references "
                    f"replayed and cycle=False")
            self._cursor = 0
        page = self.trace[self._cursor]
        self._cursor += 1
        return page

    def reset(self) -> None:
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.trace)
