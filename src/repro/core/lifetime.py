"""Array lifetime model (Section 5.5, "Estimated eNVy Lifetime").

The lifetime of the array is its total write capacity divided by the rate
pages are actually written:

    Lifetime = WriteCapacity / PageWriteRate
             = (pages_in_array x endurance_cycles)
               / (flush_rate x (1 + cleaning_cost))

The ``(1 + cleaning_cost)`` factor charges every useful flush with its
share of cleaner copies — each of which is a program into some segment
that will eventually need an erase cycle.

The paper's worked example: a 2 GB array of 1-million-cycle parts at
10,000 TPS flushes 10,376 pages/s at cleaning cost 1.97, giving
3,151 days (8.63 years) of continuous use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EnvyConfig

__all__ = ["LifetimeEstimate", "estimate_lifetime", "paper_example"]

SECONDS_PER_DAY = 86_400
DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class LifetimeEstimate:
    """Result of the Section 5.5 lifetime calculation.

    ``concentration`` generalizes the paper's uniform-wear assumption to
    adversarially skewed traffic: it is the normalized Herfindahl index
    of the per-segment program distribution
    (:func:`~repro.core.metrics.wear_concentration` — 1.0 for uniform
    wear, ``num_segments`` for a single-segment hammer).  The array is
    only as durable as its hottest segments, so the effective write
    capacity is divided by the factor: a tenant that lands every
    program in one of ``S`` segments cuts projected lifetime to
    ``1/S`` of the uniform projection — the closed-form bound the
    adversarial tests check.
    """

    array_pages: int
    endurance_cycles: int
    page_flush_rate: float
    cleaning_cost: float
    #: Wear-concentration factor (>= 1.0; 1.0 = the paper's uniform
    #: wear-leveled assumption).
    concentration: float = 1.0

    @property
    def write_capacity_pages(self) -> float:
        """Total page programs the array can absorb in its lifetime."""
        return (float(self.array_pages) * self.endurance_cycles
                / max(1.0, self.concentration))

    @property
    def page_write_rate(self) -> float:
        """Programs per second including cleaning overhead."""
        return self.page_flush_rate * (1.0 + self.cleaning_cost)

    @property
    def seconds(self) -> float:
        if self.page_write_rate <= 0:
            return float("inf")
        return self.write_capacity_pages / self.page_write_rate

    @property
    def days(self) -> float:
        return self.seconds / SECONDS_PER_DAY

    @property
    def years(self) -> float:
        return self.days / DAYS_PER_YEAR

    def __str__(self) -> str:
        return (f"{self.days:,.0f} days of continuous use "
                f"({self.years:.2f} years)")


def estimate_lifetime(config: EnvyConfig, page_flush_rate: float,
                      cleaning_cost: float,
                      concentration: float = 1.0) -> LifetimeEstimate:
    """Lifetime of ``config`` under a measured flush rate and cost.

    ``concentration`` folds in a measured per-segment wear skew (1.0 =
    the paper's uniform-wear assumption, ``num_segments`` = every
    program in one segment).
    """
    if page_flush_rate < 0:
        raise ValueError("page_flush_rate cannot be negative")
    if cleaning_cost < 0:
        raise ValueError("cleaning_cost cannot be negative")
    if concentration < 1.0:
        raise ValueError(
            "wear concentration cannot beat uniform (factor >= 1)")
    return LifetimeEstimate(
        array_pages=config.total_pages,
        endurance_cycles=config.flash.endurance_cycles,
        page_flush_rate=page_flush_rate,
        cleaning_cost=cleaning_cost,
        concentration=concentration,
    )


def paper_example() -> LifetimeEstimate:
    """The exact numbers of the Section 5.5 worked example."""
    return estimate_lifetime(EnvyConfig.paper(), page_flush_rate=10_376,
                             cleaning_cost=1.97)
