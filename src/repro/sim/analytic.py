"""Closed-form capacity model for eNVy under a transaction workload.

The timed simulator measures; this module *predicts*.  The controller is
a single served resource, so saturation throughput is where the offered
per-transaction work equals one second per second:

    T_sat = 1 / (t_reads + t_host_writes + t_flush + t_clean + t_erase)

with, per transaction,

* ``t_reads``       = reads x (bus + miss_rate x table + flash read)
* ``t_host_writes`` = writes x (buffered or copy-on-write cost)
* ``t_flush``       = pages_flushed x program
* ``t_clean``       = pages_flushed x cleaning_cost x program
* ``t_erase``       = pages_flushed x (1 + cleaning_cost) x erase/segment

The cleaning cost itself comes from the utilization via the Figure 6
model (u/(1-u) at the cleaned segments' steady-state utilization), and
the pages flushed per transaction from the write-buffer coalescing
analysis.  The model reproduces the shapes of Figures 13 and 14 without
running a single simulated transaction, and the validation benchmark
checks it against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cleaning.cost import cleaning_cost
from ..core.config import EnvyConfig

__all__ = ["TransactionProfile", "CapacityModel"]


@dataclass(frozen=True)
class TransactionProfile:
    """Storage behaviour of one transaction (TPC-A defaults).

    The defaults match the trace generator at the benchmark scale: three
    index walks plus three record reads (~80 word reads), three balance
    writes with a high buffer hit rate on the hot teller/branch pages,
    and about one page flushed per transaction (account pages are
    effectively unique, everything else coalesces).
    """

    reads: float = 80.0
    writes: float = 3.0
    #: Fraction of host writes hitting an SRAM-buffered page.
    buffer_hit_rate: float = 0.6
    #: Pages leaving the write buffer per transaction.
    pages_flushed: float = 1.05
    #: MMU translation miss rate.
    mmu_miss_rate: float = 0.2


class CapacityModel:
    """Predicts latencies, work shares, and the saturation point."""

    def __init__(self, config: EnvyConfig,
                 profile: TransactionProfile = TransactionProfile(),
                 cleaned_utilization: float = None) -> None:
        self.config = config
        self.profile = profile
        #: Utilization of segments when cleaned.  Defaults to a FIFO-ish
        #: discount of the array utilization: data keeps dying while a
        #: segment waits its turn, so segments clean below the average.
        if cleaned_utilization is None:
            cleaned_utilization = self._steady_state_utilization(
                config.max_utilization)
        self.cleaned_utilization = cleaned_utilization

    @staticmethod
    def _steady_state_utilization(array_utilization: float) -> float:
        """Cleaned-segment utilization for a FIFO-like cleaner.

        Under uniform overwrites a segment's pages decay exponentially
        between cleans; solving u* = exp(-(1 - u*)/rho) for the paper's
        rho = 0.8 gives u* ~ 0.66, matching the measured cleaning cost
        of ~2 (the paper reports 1.97).  A two-term fixed-point
        iteration is plenty.
        """
        target = array_utilization
        u = target
        for _ in range(60):
            import math
            u = math.exp(-(1.0 - u) / target)
        return u

    # ------------------------------------------------------------------
    # Per-transaction work (nanoseconds)
    # ------------------------------------------------------------------

    @property
    def cleaning_cost(self) -> float:
        return cleaning_cost(self.cleaned_utilization)

    def read_ns(self) -> float:
        cfg = self.config
        per_read = (cfg.bus_overhead_ns
                    + self.profile.mmu_miss_rate * cfg.sram.read_ns
                    + cfg.flash.read_ns)
        return self.profile.reads * per_read

    def host_write_ns(self) -> float:
        cfg = self.config
        hit = cfg.bus_overhead_ns + cfg.sram.write_ns
        miss = (cfg.bus_overhead_ns + cfg.flash.read_ns
                + cfg.sram.write_ns)
        rate = self.profile.buffer_hit_rate
        return self.profile.writes * (rate * hit + (1 - rate) * miss)

    def flush_ns(self) -> float:
        return self.profile.pages_flushed * self.config.flash.program_ns

    def clean_ns(self) -> float:
        return (self.profile.pages_flushed * self.cleaning_cost
                * self.config.flash.program_ns)

    def erase_ns(self) -> float:
        pages_programmed = (self.profile.pages_flushed
                            * (1.0 + self.cleaning_cost))
        erases = pages_programmed / self.config.pages_per_segment
        return erases * self.config.flash.erase_ns

    def transaction_ns(self) -> float:
        return (self.read_ns() + self.host_write_ns() + self.flush_ns()
                + self.clean_ns() + self.erase_ns())

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------

    def saturation_tps(self) -> float:
        """Throughput at which the controller runs out of seconds."""
        return 1e9 / self.transaction_ns()

    def time_breakdown_at_saturation(self) -> dict:
        total = self.transaction_ns()
        return {
            "read": self.read_ns() / total,
            "host-write": self.host_write_ns() / total,
            "flush": self.flush_ns() / total,
            "clean": self.clean_ns() / total,
            "erase": self.erase_ns() / total,
        }

    def sram_only_speedup(self) -> float:
        """Section 5.3's bound: drop all Flash-management work."""
        essential = self.read_ns() + self.host_write_ns()
        return self.transaction_ns() / essential

    def utilization_curve(self, utilizations) -> dict:
        """Saturation TPS at each array utilization (Figure 14)."""
        results = {}
        for utilization in utilizations:
            cleaned = self._steady_state_utilization(utilization)
            model = CapacityModel(self.config, self.profile, cleaned)
            results[utilization] = model.saturation_tps()
        return results
