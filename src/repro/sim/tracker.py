"""Measurement plumbing for the timed simulation (Figures 13-15).

Tracks what Section 5 reports: completed transactions per simulated
second (throughput), host-visible read/write latencies, and the
controller time breakdown (reads vs cleaning vs flushing vs erasing vs
idle, Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..obs.hist import LatencyHistogram

__all__ = ["SimStats"]


@dataclass
class SimStats:
    """Results of one timed simulation run."""

    requested_tps: float
    simulated_ns: int = 0
    transactions_completed: int = 0
    transactions_offered: int = 0
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    pages_flushed: int = 0
    clean_copies: int = 0
    erases: int = 0
    busy_ns: Dict[str, int] = field(default_factory=dict)
    host_stall_ns: int = 0

    @property
    def simulated_seconds(self) -> float:
        return self.simulated_ns / 1e9

    @property
    def throughput_tps(self) -> float:
        """Completed transactions per simulated second (Figure 13)."""
        if self.simulated_ns == 0:
            return 0.0
        return self.transactions_completed / self.simulated_seconds

    @property
    def page_flush_rate(self) -> float:
        """Pages flushed per second — the Section 5.5 lifetime input."""
        if self.simulated_ns == 0:
            return 0.0
        return self.pages_flushed / self.simulated_seconds

    @property
    def cleaning_cost(self) -> float:
        if self.pages_flushed == 0:
            return 0.0
        return self.clean_copies / self.pages_flushed

    @property
    def saturated(self) -> bool:
        """True when the system could not keep up with the offered load.

        The host executes every queued transaction eventually, so the
        signal is the completion *rate* falling short of the request
        rate (the queue grows without bound past this point).
        """
        return self.throughput_tps < self.requested_tps * 0.95

    def time_breakdown(self) -> Dict[str, float]:
        """Share of simulated time per activity, including idle.

        The Section 5.3 numbers ("approximately 40% of the time is
        servicing reads.  Most of the remaining time is spent either
        cleaning (30%), flushing (15%), or erasing (15%)") come from
        this at 30,000 TPS and 80% utilization.
        """
        if self.simulated_ns == 0:
            return {}
        shares = {k: v / self.simulated_ns for k, v in self.busy_ns.items()}
        shares["idle"] = max(0.0, 1.0 - sum(shares.values()))
        return dict(sorted(shares.items()))
