"""Figure 8 — Comparison of Cleaning Algorithms.

Cleaning cost versus locality of reference for the greedy,
locality-gathering and hybrid (16 segments/partition) policies on a
128-segment array.  Expected shape (paper):

* greedy starts lowest under uniform access and *rises* with locality;
* locality gathering is pinned at ~4 under uniform access and *falls*
  as locality grows, crossing greedy mid-axis;
* hybrid tracks greedy under uniform access, consistently beats pure
  locality gathering, and wins outright at high locality.
"""

import pytest

from repro.analysis import banner, format_table, line_chart
from repro.perf import run_sweep
from conftest import FULL_SCALE

LOCALITIES = ["50/50", "40/60", "30/70", "20/80", "10/90", "5/95"]
SEGMENTS = 128
PAGES = 256 if FULL_SCALE else 128
TURNOVERS = 5 if FULL_SCALE else 3
WARMUP = 10 if FULL_SCALE else 8


def measure(policy, **policy_kwargs):
    """Cleaning cost per locality label, fanned out via the sweep
    runner (``ENVY_JOBS`` controls the worker count)."""
    points = [dict(policy=policy, policy_kwargs=policy_kwargs,
                   locality=locality, num_segments=SEGMENTS,
                   pages_per_segment=PAGES, turnovers=TURNOVERS,
                   warmup_turnovers=WARMUP)
              for locality in LOCALITIES]
    results = run_sweep("repro.perf.points:cleaning_cost_point", points)
    return dict(zip(LOCALITIES, results))


def run_figure():
    runs = [measure("greedy"), measure("locality"),
            measure("hybrid", partition_segments=16)]
    greedy, locality, hybrid = ({label: result.cleaning_cost
                                 for label, result in run.items()}
                                for run in runs)
    rows = [[label, greedy[label], locality[label], hybrid[label]]
            for label in LOCALITIES]
    # Wear-leveling swaps are cleans too, charged beside the policy's
    # cost: the figure compares cleaning policies (Section 4.3 calls the
    # swap cost negligible).
    swap_rows = [[label] + [f"{run[label].wear_cleans / run[label].flushes:.2f}"
                            f" ({run[label].wear_swaps})" for run in runs]
                 for label in LOCALITIES]
    # X axis: hot-access share (50 -> 95), like the paper's locality axis.
    axis = [50, 60, 70, 80, 90, 95]
    chart = line_chart(
        {"greedy": list(zip(axis, (greedy[l] for l in LOCALITIES))),
         "locality": list(zip(axis, (locality[l] for l in LOCALITIES))),
         "hybrid": list(zip(axis, (hybrid[l] for l in LOCALITIES)))},
        width=56, height=13, x_label="% of accesses to the hot set",
        y_min=0, y_max=5)
    report = "\n".join([
        banner(f"Figure 8: cleaning cost vs locality "
               f"({SEGMENTS} segments x {PAGES} pages, hybrid k=16)"),
        format_table(["Locality", "Greedy", "Locality gathering",
                      "Hybrid(16)"], rows),
        "",
        chart,
        "",
        "Wear-leveling swap copies per flush (swaps), not in the cost:",
        format_table(["Locality", "Greedy", "Locality gathering",
                      "Hybrid(16)"], swap_rows),
        "",
        "Paper shape: greedy rises with locality; locality gathering",
        "~4 flat at uniform then falls; hybrid close to greedy at",
        "uniform and consistently below pure locality gathering.",
    ])
    return (greedy, locality, hybrid), report


def test_fig08_policy_comparison(benchmark, record):
    (greedy, locality, hybrid), report = benchmark.pedantic(
        run_figure, rounds=1, iterations=1)
    record("fig08_policy_comparison", report)
    # Greedy degrades with locality (Section 4.2).
    assert greedy["5/95"] > greedy["50/50"] + 0.5
    # Locality gathering: pinned near 4 under uniform access...
    assert locality["50/50"] == pytest.approx(4.0, abs=0.7)
    # ...and improves with locality (Section 4.3).
    assert locality["5/95"] < locality["50/50"] - 1.0
    # Hybrid close to greedy at uniform (Section 4.4)...
    assert hybrid["50/50"] < locality["50/50"] - 1.0
    # ...and consistently beats pure locality gathering.
    for label in LOCALITIES:
        assert hybrid[label] < locality[label] + 0.2
    # Crossover: locality gathering beats greedy at high locality.
    assert locality["5/95"] < greedy["5/95"]
