"""The paper's quantitative claims, as an executable checklist.

Every number the paper states is registered here with its section and a
check function; ``python -m repro claims`` runs the fast ones and prints
a verification report, and the test suite runs them all.  This is the
reproduction's contract made explicit: if a refactor breaks a claim,
the checklist names the section of the paper that no longer holds.

Only claims verifiable in a few seconds run by default; the simulation-
scale claims (Figures 8-15) have their own benchmarks and are listed
here with ``fast=False`` pointing at them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

__all__ = ["Claim", "CLAIMS", "verify_claims"]


@dataclass
class Claim:
    section: str
    statement: str
    fast: bool
    check: Optional[Callable[[], bool]] = None
    bench: Optional[str] = None

    def run(self) -> Optional[bool]:
        if self.check is None:
            return None
        try:
            return bool(self.check())
        except Exception:
            return False


def _figure1_costs() -> bool:
    from .core import EnvyConfig, system_cost

    cost = system_cost(EnvyConfig.paper())
    return (abs(cost.total_dollars - 70_000) < 3_500
            and abs(cost.sram_only_alternative() - 250_000) < 12_000
            and abs(cost.page_table_overhead - 0.10) < 0.02)


def _figure12_geometry() -> bool:
    from .core import EnvyConfig, TpcParams

    config = EnvyConfig.paper()
    tpc = TpcParams()
    return (config.flash.num_chips == 2048
            and config.flash.num_segments == 128
            and config.flash.segment_bytes == 16 << 20
            and config.pages_per_segment == 65_536
            and tpc.index_levels(tpc.num_accounts) == 5
            and tpc.index_levels(tpc.num_tellers) == 3
            and tpc.index_levels(tpc.num_branches) == 2)


def _cleaning_cost_at_80() -> bool:
    from .cleaning import cleaning_cost

    return abs(cleaning_cost(0.8) - 4.0) < 1e-9


def _lifetime_example() -> bool:
    from .core.lifetime import paper_example

    example = paper_example()
    return abs(example.days - 3151) < 35


def _latency_model() -> bool:
    from .core import EnvyConfig, EnvySystem

    system = EnvySystem(EnvyConfig.small(num_segments=8,
                                         pages_per_segment=32),
                        store_data=False)
    system.read(0, 1)  # warm the MMU
    _, read_ns = system.read_timed(0, 8)
    cow_ns = system.write(0, b"x")
    hit_ns = system.write(1, b"y")
    return read_ns == 160 and cow_ns == 260 and hit_ns == 160


def _endurance_anecdote() -> bool:
    from .flash.endurance import paper_anecdote_check

    result = paper_anecdote_check()
    return (result["modelled_at_2M_cycles_ns"] < 10_000
            and result["spec_failure_cycles"] > 1_000_000)


def _parallel_flush() -> bool:
    import random

    from .core import EnvyConfig, EnvySystem
    from .ext import ParallelFlushScheduler

    system = EnvySystem(EnvyConfig.small(num_segments=32,
                                         pages_per_segment=64,
                                         partition_segments=4),
                        store_data=False)
    rng = random.Random(1)
    for _ in range(60):
        system.write(rng.randrange(system.size_bytes - 8), b"y" * 8)
    scheduler = ParallelFlushScheduler(system, max_concurrency=8)
    scheduler.drain(40)
    return scheduler.mean_flush_time_ns < 1000


def _clean_survives_power_cut() -> bool:
    """Cut the power at 60 successive Flash operations of a write
    stream; the SRAM journal must see cuts both mid-copy and between
    remap and erase, and recovery must lose no committed byte."""
    import random

    from .core import EnvyConfig, EnvySystem
    from .core.chaos import KillSwitch
    from .core.recovery import (CleanPhase, SimulatedPowerFailure,
                                attach_journal, recover)

    system = EnvySystem(EnvyConfig.small(num_segments=8,
                                         pages_per_segment=16))
    journal = attach_journal(system)
    expected = bytearray(system.size_bytes)
    rng = random.Random(1)
    interrupted = []
    with KillSwitch(system.array) as switch:
        for cut in range(60):
            switch.arm(1 + cut % 20)
            while switch.kill_at is not None:
                address = rng.randrange(system.size_bytes // 8) * 8
                data = rng.randbytes(8)
                try:
                    system.write(address, data)
                except SimulatedPowerFailure:
                    interrupted.append(recover(system, journal,
                                               verify_scan=True))
                    break
                expected[address:address + 8] = data
    system.check_consistency()
    return ({CleanPhase.COPYING, CleanPhase.COMMITTED} <= set(interrupted)
            and system.read(0, system.size_bytes) == bytes(expected))


CLAIMS: List[Claim] = [
    Claim("Fig 1 / §5.1", "2 GB system ~$70k; SRAM alternative ~$250k; "
          "page table ~10% of flash cost", True, _figure1_costs),
    Claim("Fig 12", "2048 chips, 128 segments of 16 MB, 65,536 pages "
          "per segment; TPC index depths 5/3/2", True,
          _figure12_geometry),
    Claim("§4.1 / Fig 6", "cleaning cost is u/(1-u): exactly 4 at 80% "
          "utilization", True, _cleaning_cost_at_80),
    Claim("§5.5", "10,376 pages/s at cost 1.97 on 1M-cycle parts gives "
          "3,151 days (8.63 years)", True, _lifetime_example),
    Claim("§5.1/§5.4", "raw accesses 160 ns; copy-on-write 260 ns; "
          "buffered writes 160 ns (averages 180/200 under TPC-A)",
          True, _latency_model),
    Claim("§2", "a 10,000-cycle-rated part still programs near 4 us "
          "after 2M cycles, far under the 250 us limit", True,
          _endurance_anecdote),
    Claim("§3.4", "cleaning state kept in battery-backed SRAM: a power "
          "cut mid-clean recovers with no committed page lost", True,
          _clean_survives_power_cut),
    Claim("§6", "4-8 concurrent programs drop per-page flush time "
          "from 4 us to under 1 us", True, _parallel_flush),
    Claim("Fig 8", "greedy degrades with locality; locality gathering "
          "pinned ~4 uniform, improves with locality; hybrid best "
          "overall", False, bench="bench_fig08_policy_comparison.py"),
    Claim("Fig 9", "hybrid partition sweet spot at ~16 segments for a "
          "128-segment array", False,
          bench="bench_fig09_partition_size.py"),
    Claim("Fig 10", "more segments help until each is ~1% of the "
          "array", False, bench="bench_fig10_segment_count.py"),
    Claim("Fig 13", "throughput tracks request rate, saturating around "
          "30k TPS", False, bench="bench_fig13_throughput.py"),
    Claim("Fig 14", "throughput flat to ~80% utilization, then a steep "
          "drop", False, bench="bench_fig14_utilization.py"),
    Claim("Fig 15", "reads ~180 ns at all loads; writes jump from "
          "~200 ns to microseconds at saturation", False,
          bench="bench_fig15_latency.py"),
    Claim("§5.3", "at saturation ~40% reads, ~30% cleaning, ~15% "
          "flushing; SRAM-only bound ~2.5x", False,
          bench="bench_sec53_breakdown.py"),
]


def verify_claims(include_slow_listing: bool = True) -> List[tuple]:
    """Run every fast claim; returns (claim, passed-or-None) pairs."""
    results = []
    for claim in CLAIMS:
        if claim.fast:
            results.append((claim, claim.run()))
        elif include_slow_listing:
            results.append((claim, None))
    return results
