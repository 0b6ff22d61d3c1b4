"""Cleaning subsystem: policies, cost model, wear leveling, simulator.

Implements Section 4 of the paper: the analytic cleaning-cost model
(Figure 6), the greedy/FIFO/locality-gathering/hybrid policies compared
in Figure 8, partitioning (Figure 9), segment-count scaling (Figure 10)
and the 100-cycle wear-leveling swap.
"""

# Policy/base imports come first: the controller imports them from this
# package while the simulator import below is still in progress (the
# simulator pulls in the workloads package, which reaches the core
# package, which needs the names bound so far).
from .base import CleaningPolicy
from .cost import cleaning_cost
from .fifo import FifoPolicy
from .greedy import GreedyPolicy
from .hybrid import HybridPolicy, PartitionState
from .locality import LocalityGatheringPolicy
from .store import IN_BUFFER, Position, SegmentStore, StoreError
from .wear import WearLeveler

POLICIES = {
    "greedy": GreedyPolicy,
    "fifo": FifoPolicy,
    "locality": LocalityGatheringPolicy,
    "hybrid": HybridPolicy,
}


def make_policy(name: str, **kwargs) -> CleaningPolicy:
    """Instantiate a policy by its configuration name."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(f"unknown cleaning policy {name!r}; "
                         f"choose from {sorted(POLICIES)}")
    return factory(**kwargs)


from .simulator import (PolicySimulator, SimulationResult,  # noqa: E402
                        measure_cleaning_cost)

__all__ = [
    "CleaningPolicy",
    "GreedyPolicy",
    "FifoPolicy",
    "LocalityGatheringPolicy",
    "HybridPolicy",
    "PartitionState",
    "WearLeveler",
    "SegmentStore",
    "Position",
    "StoreError",
    "IN_BUFFER",
    "PolicySimulator",
    "SimulationResult",
    "measure_cleaning_cost",
    "cleaning_cost",
    "POLICIES",
    "make_policy",
]
