"""Analytic Flash cleaning-cost model (Section 4.1, Figure 6).

The paper defines *Flash cleaning cost* as "the number of Flash program
operations performed by the cleaning algorithm for every page that is
flushed from the write buffer".  Cleaning a segment whose utilization is
``u`` copies ``u * C`` live pages and recovers ``(1 - u) * C`` writable
pages, so the overhead per recovered (useful) write is ``u / (1 - u)``.

At 80% utilization the cost is 4 — the paper's "naive cleaning scheme that
keeps each segment at 80% utilization would have an average cleaning cost
of 4" — and beyond ~80% it "quickly reaches unreasonable levels", which is
why eNVy reserves 20% of the array (Section 4.1, reinforced by Figure 14).

Unlike the Sprite LFS *write cost*, the cleaning cost excludes both the
reads done while cleaning (writes dominate Flash cleaning time) and the
initial flush itself (that is useful work, not overhead).
"""

from __future__ import annotations

import math

__all__ = ["cleaning_cost", "MAX_FINITE_UTILIZATION"]

#: Above this utilization the model reports infinity rather than a number
#: so large it would be meaningless (a full segment cannot be cleaned at
#: all: copying C live pages recovers zero space).
MAX_FINITE_UTILIZATION = 1.0 - 1e-12


def cleaning_cost(utilization: float) -> float:
    """Program operations of cleaning overhead per useful page write.

    ``u / (1 - u)`` for a segment at utilization ``u``:

    >>> cleaning_cost(0.5)
    1.0
    >>> cleaning_cost(0.75)
    3.0
    >>> cleaning_cost(0.0)
    0.0
    """
    if not 0.0 <= utilization <= 1.0:
        raise ValueError(f"utilization must be in [0, 1], got {utilization}")
    if utilization >= MAX_FINITE_UTILIZATION:
        return math.inf
    return utilization / (1.0 - utilization)
