"""Replication statistics for stochastic experiments.

Single-seed results can flatter or slander a policy; the cleaning-cost
and throughput experiments are all seeded simulations, so proper
reporting runs several seeds and quotes mean ± confidence interval.
This helper keeps that honest without dragging in scipy for a t-table —
the two-sided 95% t quantiles are embedded for the small sample counts
replication actually uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

__all__ = ["ReplicationSummary", "replicate"]

#: Two-sided 95% Student-t quantiles by degrees of freedom (1..30).
_T95 = [12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
        2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
        2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
        2.048, 2.045, 2.042]


def _t95(dof: int) -> float:
    if dof < 1:
        raise ValueError("need at least two samples for an interval")
    if dof <= len(_T95):
        return _T95[dof - 1]
    return 1.96  # the normal limit is fine past 30 samples


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and spread of one metric over replicated runs."""

    samples: tuple

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def std(self) -> float:
        """Sample standard deviation (Bessel-corrected)."""
        if len(self.samples) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((x - mu) ** 2 for x in self.samples)
                         / (len(self.samples) - 1))

    @property
    def sem(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return self.std / math.sqrt(len(self.samples))

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval on the mean."""
        if len(self.samples) < 2:
            return 0.0
        return _t95(len(self.samples) - 1) * self.sem

    def overlaps(self, other: "ReplicationSummary") -> bool:
        """Whether the two 95% intervals overlap (a quick screen, not a
        substitute for a proper test)."""
        return (abs(self.mean - other.mean)
                <= self.ci95 + other.ci95)

    def __str__(self) -> str:
        if len(self.samples) < 2:
            return f"{self.mean:.3g} (n=1)"
        return (f"{self.mean:.3g} ± {self.ci95:.2g} "
                f"(n={len(self.samples)})")


def replicate(experiment: Callable[[int], float],
              seeds: Sequence[int]) -> ReplicationSummary:
    """Run ``experiment(seed)`` for every seed and summarise.

    >>> summary = replicate(lambda seed: float(seed % 3), [0, 1, 2, 3])
    >>> round(summary.mean, 3)
    1.0
    """
    if not seeds:
        raise ValueError("need at least one seed")
    samples: List[float] = [float(experiment(seed)) for seed in seeds]
    return ReplicationSummary(tuple(samples))
