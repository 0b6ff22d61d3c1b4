"""Latency and throughput accounting for the eNVy controller.

Collects the quantities Section 5 reports: host read/write counts and
latencies (Figure 15), copy-on-write and buffer-hit rates, flush and
cleaning volume (the cleaning-cost numerator/denominator), and the
controller time breakdown of Section 5.3 (reads vs cleaning vs flushing
vs erasing).

Latencies are kept as full log-bucketed histograms
(:class:`~repro.obs.hist.LatencyHistogram`), not just min/max/mean: the
paper reports averages, but the phenomena this reproduction models —
cleaning stalls, buffer saturation, retry storms — live in the tails,
so every consumer of a latency stat gets p50/p90/p99/p999 for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from ..obs.hist import LatencyHistogram

__all__ = ["ControllerMetrics", "wear_concentration"]


def wear_concentration(counts) -> float:
    """Normalized Herfindahl index of a wear distribution.

    ``counts`` are per-segment program (or erase) counts.  The result is
    ``n * sum(share_i^2)`` — 1.0 for perfectly uniform wear over the
    ``n`` segments, ``n`` when every program lands in a single segment.
    It is exactly the factor by which concentrated wear shortens the
    Section 5.5 lifetime projection: the array dies when its hottest
    segments exhaust their endurance, so effective write capacity scales
    with ``1 / concentration`` (``LifetimeEstimate.concentration``).

    Empty or all-zero inputs return 1.0 (no wear is uniform wear).
    """
    counts = list(counts)
    total = float(sum(counts))
    if not counts or total <= 0:
        return 1.0
    hhi = sum((c / total) ** 2 for c in counts)
    return hhi * len(counts)


@dataclass
class ControllerMetrics:
    """Counters the eNVy controller maintains while servicing a host."""

    reads: int = 0
    writes: int = 0
    buffer_hits: int = 0
    copy_on_writes: int = 0
    flushes: int = 0
    clean_copies: int = 0
    erases: int = 0
    wear_swaps: int = 0
    # --- fault-tolerance counters (repro.faults) ----------------------
    ecc_corrected: int = 0
    ecc_uncorrectable: int = 0
    program_retries: int = 0
    erase_retries: int = 0
    bad_blocks_retired: int = 0
    #: Flash-resident metadata checkpoints written (repro.core.checkpoint).
    checkpoints_written: int = 0
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Controller time by activity, nanoseconds (Section 5.3 breakdown).
    busy_ns: Dict[str, int] = field(default_factory=dict)

    def charge(self, activity: str, ns: int) -> None:
        """Attribute ``ns`` of controller time to an activity."""
        self.busy_ns[activity] = self.busy_ns.get(activity, 0) + ns

    # ------------------------------------------------------------------

    @property
    def buffer_hit_rate(self) -> float:
        return self.buffer_hits / self.writes if self.writes else 0.0

    @property
    def cleaning_cost(self) -> float:
        """Cleaner programs per flushed page (Section 4.1)."""
        return self.clean_copies / self.flushes if self.flushes else 0.0

    def time_breakdown(self) -> Dict[str, float]:
        """Fraction of busy time per activity (Section 5.3)."""
        total = sum(self.busy_ns.values())
        if not total:
            return {}
        return {k: v / total for k, v in sorted(self.busy_ns.items())}

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.buffer_hits = 0
        self.copy_on_writes = 0
        self.flushes = 0
        self.clean_copies = 0
        self.erases = 0
        self.wear_swaps = 0
        self.ecc_corrected = 0
        self.ecc_uncorrectable = 0
        self.program_retries = 0
        self.erase_retries = 0
        self.bad_blocks_retired = 0
        self.checkpoints_written = 0
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        self.busy_ns = {}

    # ------------------------------------------------------------------
    # Snapshot / restore (repro.core.persistence)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Plain-dict snapshot, histograms included."""
        counters = {f.name: getattr(self, f.name) for f in fields(self)
                    if f.name not in ("read_latency", "write_latency",
                                      "busy_ns")}
        return {
            "counters": counters,
            "busy_ns": dict(self.busy_ns),
            "read_latency": self.read_latency.state_dict(),
            "write_latency": self.write_latency.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        for f in fields(self):
            if f.name in state["counters"]:
                setattr(self, f.name, state["counters"][f.name])
        self.busy_ns = dict(state["busy_ns"])
        self.read_latency = LatencyHistogram()
        self.read_latency.load_state(state["read_latency"])
        self.write_latency = LatencyHistogram()
        self.write_latency.load_state(state["write_latency"])

    # ------------------------------------------------------------------

    def summary(self) -> str:
        lines = [
            f"reads:  {self.reads} (avg {self.read_latency.mean_ns:.0f}ns)",
            f"writes: {self.writes} "
            f"(avg {self.write_latency.mean_ns:.0f}ns, "
            f"{self.buffer_hit_rate:.0%} buffered)",
            f"flushes: {self.flushes}, cleaning cost "
            f"{self.cleaning_cost:.2f}, erases: {self.erases}",
        ]
        faults = (self.ecc_corrected + self.ecc_uncorrectable +
                  self.program_retries + self.erase_retries +
                  self.bad_blocks_retired)
        if faults:
            lines.append(
                f"faults: {self.ecc_corrected} corrected, "
                f"{self.ecc_uncorrectable} uncorrectable, "
                f"{self.program_retries}+{self.erase_retries} retries, "
                f"{self.bad_blocks_retired} blocks retired")
        breakdown = self.time_breakdown()
        if breakdown:
            parts = ", ".join(f"{k} {v:.0%}" for k, v in breakdown.items())
            lines.append(f"controller time: {parts}")
        return "\n".join(lines)
