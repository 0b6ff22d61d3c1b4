"""Windowed time-series sampling of system gauges over simulated time.

Percentile histograms say *how bad* the tail is; they cannot say *when*
it happened or what the system looked like at that moment.  The sampler
closes that gap: at a fixed simulated-time cadence it snapshots the
rates (reads, writes, flushes, cleaner copies, erases per window) and
gauges (buffer occupancy, cleaning backlog, utilization, wear spread)
whose co-movement explains the tails — e.g. write p99 spikes line up
with windows where buffer occupancy pinned at 100% and cleaning backlog
grew, which is exactly the Figure 15 saturation story told over time.

The sampler is driven by the observability hub: every event's timestamp
is fed to :meth:`observe`, which closes as many whole windows as the
clock has passed.  Between events nothing runs, so an idle system costs
nothing and a busy one costs one comparison per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Window", "TimeSeriesSampler"]


@dataclass
class Window:
    """One closed sampling window: deltas over it, gauges at its end."""

    t_start_ns: int
    t_end_ns: int
    # --- rates (deltas over the window) ------------------------------
    reads: int = 0
    writes: int = 0
    buffer_hits: int = 0
    flushes: int = 0
    clean_copies: int = 0
    erases: int = 0
    retries: int = 0
    faults: int = 0
    # --- gauges (state at window close) ------------------------------
    buffer_pages: int = 0
    buffer_capacity: int = 0
    #: Dead (invalidated, not yet erased) pages across the store — the
    #: cleaning backlog the cleaner must eventually move past.
    cleaning_backlog_pages: int = 0
    utilization: float = 0.0
    wear_spread: int = 0
    #: Live fraction of each position (segment-resolution heat data).
    per_position_utilization: List[float] = field(default_factory=list)
    #: Erase cycles per physical segment (wear heat data).
    per_segment_erases: List[int] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        return max(1, self.t_end_ns - self.t_start_ns)

    @property
    def buffer_occupancy(self) -> float:
        if not self.buffer_capacity:
            return 0.0
        return self.buffer_pages / self.buffer_capacity

    def as_dict(self, include_arrays: bool = True) -> dict:
        row = {
            "t_start_ns": self.t_start_ns,
            "t_end_ns": self.t_end_ns,
            "reads": self.reads,
            "writes": self.writes,
            "buffer_hits": self.buffer_hits,
            "flushes": self.flushes,
            "clean_copies": self.clean_copies,
            "erases": self.erases,
            "retries": self.retries,
            "faults": self.faults,
            "buffer_pages": self.buffer_pages,
            "buffer_capacity": self.buffer_capacity,
            "buffer_occupancy": round(self.buffer_occupancy, 4),
            "cleaning_backlog_pages": self.cleaning_backlog_pages,
            "utilization": round(self.utilization, 4),
            "wear_spread": self.wear_spread,
        }
        if include_arrays:
            row["per_position_utilization"] = self.per_position_utilization
            row["per_segment_erases"] = self.per_segment_erases
        return row


class _CounterBaseline:
    """Controller-metrics counter values at the last window close."""

    __slots__ = ("reads", "writes", "buffer_hits", "flushes",
                 "clean_copies", "erases", "retries", "faults")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.buffer_hits = 0
        self.flushes = 0
        self.clean_copies = 0
        self.erases = 0
        self.retries = 0
        self.faults = 0

    def capture(self, metrics) -> None:
        self.reads = metrics.reads
        self.writes = metrics.writes
        self.buffer_hits = metrics.buffer_hits
        self.flushes = metrics.flushes
        self.clean_copies = metrics.clean_copies
        self.erases = metrics.erases
        self.retries = metrics.program_retries + metrics.erase_retries
        self.faults = (metrics.ecc_corrected + metrics.ecc_uncorrectable
                       + metrics.bad_blocks_retired)


class TimeSeriesSampler:
    """Closes fixed-cadence windows as the observability clock advances."""

    def __init__(self, controller, interval_ns: int = 1_000_000) -> None:
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        self.controller = controller
        self.interval_ns = interval_ns
        self.windows: List[Window] = []
        self._window_start = controller.events.clock_ns
        self._baseline = _CounterBaseline()
        self._baseline.capture(controller.metrics)

    # ------------------------------------------------------------------

    def observe(self, t_ns: int) -> None:
        """Close every whole window the clock has moved past."""
        while t_ns - self._window_start >= self.interval_ns:
            self._close(self._window_start + self.interval_ns)

    def flush(self, t_ns: Optional[int] = None) -> None:
        """Close the trailing partial window (end of run)."""
        end = t_ns if t_ns is not None else self.controller.events.clock_ns
        if end > self._window_start:
            self._close(end)

    def latest(self) -> Optional[Window]:
        return self.windows[-1] if self.windows else None

    # ------------------------------------------------------------------

    def _close(self, end_ns: int) -> None:
        controller = self.controller
        metrics = controller.metrics
        base = self._baseline
        window = Window(t_start_ns=self._window_start, t_end_ns=end_ns)
        window.reads = metrics.reads - base.reads
        window.writes = metrics.writes - base.writes
        window.buffer_hits = metrics.buffer_hits - base.buffer_hits
        window.flushes = metrics.flushes - base.flushes
        window.clean_copies = metrics.clean_copies - base.clean_copies
        window.erases = metrics.erases - base.erases
        retries = metrics.program_retries + metrics.erase_retries
        window.retries = retries - base.retries
        faults = (metrics.ecc_corrected + metrics.ecc_uncorrectable
                  + metrics.bad_blocks_retired)
        window.faults = faults - base.faults
        # Gauges at window close.
        window.buffer_pages = len(controller.buffer)
        window.buffer_capacity = controller.buffer.capacity_pages
        occupancy = controller.store.occupancy()
        window.cleaning_backlog_pages = occupancy["dead_pages"]
        window.utilization = occupancy["utilization"]
        window.per_position_utilization = \
            occupancy["per_position_utilization"]
        wear = controller.array.wear_stats()
        window.wear_spread = wear.spread
        window.per_segment_erases = list(wear.erase_counts)
        self.windows.append(window)
        self._window_start = end_ns
        base.capture(metrics)

    def as_dicts(self, include_arrays: bool = True) -> List[dict]:
        return [w.as_dict(include_arrays) for w in self.windows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TimeSeriesSampler({len(self.windows)} windows of "
                f"{self.interval_ns}ns)")
