"""Workload interface: streams of logical page writes.

The cleaning experiments of Section 4 are driven purely by *write*
references ("only write locality and write access patterns affect
cleaning efficiency"), so a workload here is an iterator of logical page
numbers to overwrite.  The timed TPC-A simulator layers reads and
transaction structure on top (see :mod:`repro.workloads.tpca`).
"""

from __future__ import annotations

import abc
import random
from typing import List, Optional

__all__ = ["WriteWorkload", "randbelow"]


def randbelow(getrandbits, n: int) -> int:
    """Uniform integer in ``[0, n)`` for ``n >= 1``.

    This is the rejection loop ``random.Random.randrange(n)`` itself runs
    (``_randbelow_with_getrandbits``) without the argument checking in
    front of it, so for the same generator state it consumes the same
    bits and returns the same value; ``randrange(a, b)`` is
    ``a + randbelow(getrandbits, b - a)``.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class WriteWorkload(abc.ABC):
    """A reproducible stream of logical page write references."""

    def __init__(self, num_pages: int, seed: Optional[int] = None) -> None:
        if num_pages <= 0:
            raise ValueError("workload needs at least one page")
        self.num_pages = num_pages
        self.seed = seed
        self.rng = random.Random(seed)

    @abc.abstractmethod
    def next_page(self) -> int:
        """The next logical page to write (0 <= page < num_pages)."""

    def next_pages(self, count: int) -> List[int]:
        """The next ``count`` pages: ``count`` calls of :meth:`next_page`
        (subclasses that override it draw the same values in bulk)."""
        return [self.next_page() for _ in range(count)]

    def reset(self) -> None:
        """Restart the stream from its seed."""
        self.rng = random.Random(self.seed)

    #: Human-readable label for reports ("uniform", "10/90", ...).
    label: str = "workload"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.label}, {self.num_pages} pages)"
