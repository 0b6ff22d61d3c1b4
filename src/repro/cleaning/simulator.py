"""Untimed cleaning-policy simulator (drives Figures 6, 8, 9 and 10).

Feeds a stream of logical page writes through the SRAM write buffer and a
cleaning policy over a :class:`~repro.cleaning.store.SegmentStore`,
reporting the steady-state *cleaning cost* — cleaner program operations
per page flushed (Section 4.1).

Timing is irrelevant to cleaning cost, so this simulator has no clock:
the buffer drains one page for every page inserted once it reaches its
threshold, which is the steady state of the real controller's background
flushing.  What *is* modelled faithfully:

* copy-on-write invalidation the moment a page enters the buffer,
* FIFO buffer order with write coalescing (hits do not flush),
* origin tracking so locality-aware policies flush back where the page
  came from (segment for locality gathering, partition for hybrid),
* one always-erased spare segment, and
* the 100-cycle wear-leveling swap (optional).

Scale note: results depend on the number of segments, pages per segment,
utilization and the buffer:segment ratio — all preserved by default —
not on absolute capacity, so experiments run with fewer pages per
segment than the 65,536 of the 2 GB system.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import Iterable, Optional

from ..workloads.base import WriteWorkload
from .base import CleaningPolicy
from .store import SegmentStore
from .wear import WearLeveler

__all__ = ["PolicySimulator", "SimulationResult", "measure_cleaning_cost"]


@dataclass
class SimulationResult:
    """Steady-state measurements from a policy run."""

    policy: str
    workload: str
    num_segments: int
    pages_per_segment: int
    utilization: float
    host_writes: int
    buffer_hits: int
    flushes: int
    clean_copies: int
    transfers: int
    erases: int
    wear_spread: int
    wear_swaps: int
    #: Cleaner page copies made by wear-leveling swaps, kept out of
    #: ``clean_copies`` (the cleaning policy's own copies).
    wear_cleans: int = 0

    @property
    def cleaning_cost(self) -> float:
        """The policy's cleaner programs per flushed page (the Figure 8
        metric; wear-leveling swaps are ``wear_cleans``)."""
        if self.flushes == 0:
            return 0.0
        return self.clean_copies / self.flushes

    @property
    def write_amplification(self) -> float:
        """Total Flash programs per flushed page (swap copies too)."""
        return 1.0 + (self.clean_copies + self.wear_cleans) / max(
            1, self.flushes)

    @property
    def buffer_hit_rate(self) -> float:
        if self.host_writes == 0:
            return 0.0
        return self.buffer_hits / self.host_writes

    def __str__(self) -> str:
        return (f"{self.policy:>8} {self.workload:>6}: "
                f"cost={self.cleaning_cost:.2f} "
                f"(flushes={self.flushes}, copies={self.clean_copies}, "
                f"erases={self.erases})")


class PolicySimulator:
    """Run one cleaning policy under one write workload."""

    __slots__ = ("policy", "utilization", "store", "buffer_pages",
                 "buffer_policy", "_buffer", "buffer_hits", "host_writes",
                 "leveler")

    def __init__(self, policy: CleaningPolicy, num_segments: int = 128,
                 pages_per_segment: int = 256, utilization: float = 0.80,
                 buffer_pages: Optional[int] = None,
                 wear_leveling: bool = True,
                 wear_threshold: int = 100,
                 buffer_policy: str = "fifo",
                 layout_seed: Optional[int] = None) -> None:
        if not 0.0 < utilization < 1.0:
            raise ValueError("utilization must be in (0, 1)")
        self.policy = policy
        self.utilization = utilization
        num_logical = int(num_segments * pages_per_segment * utilization)
        self.store = SegmentStore(num_segments, pages_per_segment,
                                  num_logical)
        # ``layout_seed`` is accepted but unused: no policy asks for a
        # shuffled layout, and benchmarks/e2e/workloads.py passes it.
        if policy.preferred_layout == "sequential":
            self.store.populate_sequential()
        else:
            self.store.populate_contiguous()
        policy.attach(self.store)
        # The paper sizes the buffer to one segment (Section 5.1).  A
        # buffer of 0 bypasses SRAM entirely: every write flushes
        # immediately, which matches the Section 4 policy analysis where
        # uniform locality gathering is pinned at exactly cost 4 (buffer
        # coalescing would shave cleaned-segment utilization below 80%).
        self.buffer_pages = (buffer_pages if buffer_pages is not None
                             else pages_per_segment)
        if self.buffer_pages < 0:
            raise ValueError("buffer size cannot be negative")
        if buffer_policy not in ("fifo", "lru"):
            raise ValueError("buffer_policy must be 'fifo' or 'lru'")
        #: "fifo" evicts by insertion order (the paper's hardware
        #: choice, Section 3.2); "lru" promotes on every hit — the
        #: complex scheme the paper rejected, kept for the ablation.
        self.buffer_policy = buffer_policy
        #: Buffered pages: logical page -> origin position.
        self._buffer: "OrderedDict[int, int]" = OrderedDict()
        self.buffer_hits = 0
        self.host_writes = 0
        self.leveler = (WearLeveler(wear_threshold) if wear_leveling
                        else None)

    # ------------------------------------------------------------------

    def write(self, logical_page: int) -> None:
        """Apply one host write (word writes collapse to page writes)."""
        self._replay((logical_page,))

    def _replay(self, pages: Iterable[int]) -> None:
        """Apply a stream of host writes: the one copy of the buffer
        hit / copy-on-write / flush logic, shared by every entry point.

        The wear leveler is polled after a flush only if the flush
        erased something (or the previous poll swapped, which matters
        when the cooldown is 0): its cooldown and the wear spread are
        functions of erase state alone, so every skipped poll would
        have returned False.
        """
        store = self.store
        buffer = self._buffer
        capacity = self.buffer_pages
        lru = self.buffer_policy == "lru"
        popitem = buffer.popitem
        copy_on_write = store.buffer_page
        flush = self.policy.flush
        level = self.leveler.maybe_level if self.leveler else None
        polled_erases = -1
        writes = hits = 0
        try:
            for page in pages:
                writes += 1
                if page in buffer:
                    # Coalesced: already in SRAM; update in place.
                    hits += 1
                    if lru:
                        buffer.move_to_end(page)
                    continue
                if capacity and len(buffer) >= capacity:
                    # The FIFO tail leaves before the new page's old
                    # copy is invalidated.
                    victim, origin = popitem(last=False)
                    flush(victim, origin)
                    if level and store.erase_count != polled_erases:
                        polled_erases = (-1 if level(store)
                                         else store.erase_count)
                origin = copy_on_write(page)
                if origin is None:
                    raise RuntimeError(
                        f"page {page} has no initial placement; "
                        f"populate the store before writing")
                if capacity:
                    buffer[page] = origin
                    continue
                # No SRAM buffer: the write flushes straight through.
                flush(page, origin)
                if level and store.erase_count != polled_erases:
                    polled_erases = (-1 if level(store)
                                     else store.erase_count)
        finally:
            self.host_writes += writes
            self.buffer_hits += hits

    def drain(self) -> None:
        """Flush every buffered page (used at the end of experiments)."""
        buffer = self._buffer
        while buffer:
            page, origin = buffer.popitem(last=False)
            self.policy.flush(page, origin)
            if self.leveler is not None:
                self.leveler.maybe_level(self.store)

    # ------------------------------------------------------------------

    def run(self, workload: WriteWorkload, num_writes: int,
            warmup_writes: int = 0) -> SimulationResult:
        """Drive ``num_writes`` measured writes (after optional warm-up).

        Warm-up writes bring the array to steady state; counters reset
        before measurement so transients do not bias the cost, and the
        wear leveler forgets its warm-up swaps with them.
        """
        if workload.num_pages != self.store.num_logical_pages:
            raise ValueError(
                f"workload covers {workload.num_pages} pages but the "
                f"store exposes {self.store.num_logical_pages}")
        for name, count in (("num_writes", num_writes),
                            ("warmup_writes", warmup_writes)):
            if count < 0:
                raise ValueError(f"{name} cannot be negative: {count}")
        next_page = workload.next_page
        self._replay(starmap(next_page, repeat((), warmup_writes)))
        self.reset_counters()
        self._replay(starmap(next_page, repeat((), num_writes)))
        return self.result(workload.label)

    def reset_counters(self) -> None:
        self.store.reset_counters()
        if self.leveler is not None:
            self.leveler.reset()
        self.buffer_hits = 0
        self.host_writes = 0

    def result(self, workload_label: str = "") -> SimulationResult:
        store = self.store
        leveler = self.leveler
        wear_cleans = leveler.swap_copies if leveler else 0
        return SimulationResult(
            policy=self.policy.name,
            workload=workload_label,
            num_segments=store.num_positions,
            pages_per_segment=store.pages_per_segment,
            utilization=self.utilization,
            host_writes=self.host_writes,
            buffer_hits=self.buffer_hits,
            flushes=store.flush_count,
            clean_copies=store.clean_copy_count - wear_cleans,
            transfers=store.transfer_count,
            erases=store.erase_count,
            wear_spread=store.wear_spread(),
            wear_swaps=leveler.swap_count if leveler else 0,
            wear_cleans=wear_cleans,
        )


def measure_cleaning_cost(policy: CleaningPolicy,
                          locality: str = "50/50",
                          num_segments: int = 128,
                          pages_per_segment: int = 256,
                          utilization: float = 0.80,
                          turnovers: float = 6.0,
                          warmup_turnovers: float = 4.0,
                          wear_leveling: bool = True,
                          buffer_pages: Optional[int] = 0,
                          seed: Optional[int] = 1234) -> SimulationResult:
    """Convenience wrapper: build, warm up, measure, return the result.

    ``locality`` is a Figure 8 label ("50/50" ... "5/95"); the bimodal
    workload is sized to the store's logical page count automatically.
    ``turnovers`` expresses run length in multiples of the live data set
    (one turnover rewrites, on average, every live page once).
    """
    from ..workloads.bimodal import BimodalWorkload

    simulator = PolicySimulator(policy, num_segments, pages_per_segment,
                                utilization, buffer_pages=buffer_pages,
                                wear_leveling=wear_leveling)
    live_pages = simulator.store.num_logical_pages
    workload = BimodalWorkload.from_label(live_pages, locality, seed=seed)
    warmup = int(live_pages * warmup_turnovers)
    measured = int(live_pages * turnovers)
    return simulator.run(workload, measured, warmup_writes=warmup)
