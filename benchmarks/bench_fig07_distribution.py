"""Figure 7 — Distribution of Space for Various Cleaning Methods.

The paper's conceptual diagram: under a hot/cold workload, greedy mixes
hot and cold data through every segment (uniform utilizations), while
locality gathering concentrates hot data (and free space) in the
low-numbered segments and packs cold data tightly; hybrid shows the same
shape at partition granularity.  This benchmark regenerates the diagram
as measured per-segment utilization and hot-page share.
"""

import pytest

from repro.analysis import banner, format_table
from repro.cleaning import (GreedyPolicy, HybridPolicy,
                            LocalityGatheringPolicy, PolicySimulator)
from repro.workloads import BimodalWorkload

SEGMENTS = 32
PAGES = 128
GROUP = 4  # segments summarised per row


def run_policy(policy):
    simulator = PolicySimulator(policy, num_segments=SEGMENTS,
                                pages_per_segment=PAGES, utilization=0.8,
                                buffer_pages=0)
    live = simulator.store.num_logical_pages
    workload = BimodalWorkload(live, 0.10, 0.90, seed=3)
    simulator.run(workload, live * 3, warmup_writes=live * 10)
    store = simulator.store
    utilizations = [position.utilization for position in store.positions]
    hot_share = [0.0] * SEGMENTS
    for page in range(workload.hot_pages):
        location = store.page_location[page]
        if location is not None and location[0] >= 0:
            hot_share[location[0]] += 1 / workload.hot_pages
    return utilizations, hot_share


def summarise(values):
    return [sum(values[i:i + GROUP]) / GROUP
            for i in range(0, SEGMENTS, GROUP)]


def run_figure():
    data = {}
    for policy in (GreedyPolicy(), LocalityGatheringPolicy(),
                   HybridPolicy(partition_segments=8)):
        data[policy.name] = run_policy(policy)
    rows = []
    for name, (utilizations, hot_share) in data.items():
        rows.append([name, "utilization"]
                    + [f"{value:.2f}" for value in summarise(utilizations)])
        rows.append([name, "hot share"]
                    + [f"{value:.2f}" for value in summarise(hot_share)])
    headers = (["Policy", "Metric"]
               + [f"seg {i}-{i + GROUP - 1}"
                  for i in range(0, SEGMENTS, GROUP)])
    report = "\n".join([
        banner("Figure 7: distribution of space per cleaning method "
               "(10/90 workload)"),
        format_table(headers, rows),
        "",
        "Paper (conceptual): greedy spreads hot+cold through all",
        "segments; locality gathering gathers hot data and free space",
        "at low-numbered segments with cold data packed tight.",
    ])
    return data, report


def test_fig07_space_distribution(benchmark, record):
    data, report = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    record("fig07_distribution", report)
    greedy_util, greedy_hot = data["greedy"]
    locality_util, locality_hot = data["locality"]
    # Greedy: roughly uniform hot-data spread (no gathering).
    first_half_hot = sum(greedy_hot[:SEGMENTS // 2])
    assert 0.25 <= first_half_hot <= 0.75
    # Locality gathering: hot data concentrated in the low half...
    assert sum(locality_hot[:SEGMENTS // 2]) > 0.9
    # ...and cold segments packed above the global 80% utilization.
    cold_avg = sum(locality_util[SEGMENTS // 2:]) / (SEGMENTS // 2)
    hot_avg = sum(locality_util[:SEGMENTS // 4]) / (SEGMENTS // 4)
    assert cold_avg > hot_avg
