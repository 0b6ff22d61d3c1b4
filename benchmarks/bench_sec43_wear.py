"""Section 4.3 (last paragraph) — wear leveling.

"eNVy keeps statistics on the number of program/erase cycles each
segment has been exposed to and when the oldest segment gets over 100
cycles older than the youngest, a cleaning operation is initiated that
swaps the data in the two areas.  This leads to an even wearing of the
segments."

Compares the erase-cycle spread of a skewed workload with and without
the leveling swap.
"""

import pytest

from repro.analysis import banner, format_table
from repro.cleaning import LocalityGatheringPolicy, PolicySimulator
from repro.workloads import BimodalWorkload

SEGMENTS = 16
PAGES = 64
THRESHOLD = 20  # scaled-down analogue of the paper's 100 cycles


def run_case(wear_leveling):
    simulator = PolicySimulator(LocalityGatheringPolicy(),
                                num_segments=SEGMENTS,
                                pages_per_segment=PAGES,
                                utilization=0.8, buffer_pages=0,
                                wear_leveling=wear_leveling,
                                wear_threshold=THRESHOLD)
    live = simulator.store.num_logical_pages
    workload = BimodalWorkload(live, 0.05, 0.95, seed=11)
    simulator.run(workload, live * 14)
    return simulator.result("5/95")


def run_experiment():
    unleveled = run_case(wear_leveling=False)
    leveled = run_case(wear_leveling=True)
    rows = [
        [label, result.wear_spread, result.wear_swaps,
         f"{result.cleaning_cost:.2f}",
         f"{result.wear_cleans / result.flushes:.2f}"]
        for label, result in (("wear leveling off", unleveled),
                              ("wear leveling on", leveled))]
    report = "\n".join([
        banner(f"Section 4.3: wear leveling under a 5/95 workload "
               f"(swap threshold {THRESHOLD} cycles)"),
        format_table(["Configuration", "Erase-cycle spread", "Swaps",
                      "Cleaning cost", "Swap copies/flush"], rows),
        "",
        "Paper: swapping the oldest and youngest segments' data bounds",
        "the age spread, evening out wear across the array.",
    ])
    return unleveled, leveled, report


def test_sec43_wear_leveling(benchmark, record):
    unleveled, leveled, report = benchmark.pedantic(run_experiment,
                                                    rounds=1, iterations=1)
    record("sec43_wear", report)
    # The skewed workload wears hot segments far faster...
    assert unleveled.wear_spread > THRESHOLD
    assert unleveled.wear_swaps == 0
    # ...and the swap mechanism reins the spread in.
    assert leveled.wear_swaps > 0
    assert leveled.wear_spread < unleveled.wear_spread
    # Leveling costs little extra cleaning, its swap copies included.
    assert leveled.write_amplification < unleveled.write_amplification + 1.0
