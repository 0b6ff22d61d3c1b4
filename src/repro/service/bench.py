"""The deterministic 1000-tenant churn fleet.

One tenant list shared by the ``svc_fleet_1k`` benchmark workload
(``benchmarks/e2e/``) and the ``service/service_scale`` fidelity
scenario (``tests/test_scenario_fidelity.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["scale_fleet"]


def scale_fleet(count: int, duration_s: float) -> List[Dict[str, Any]]:
    """Deterministic O(10^3)-tenant fleet with churn, pure index math.

    Rates and skews cycle through small residue classes so the fleet
    mixes read-heavy and write-heavy tenants; fixed cohorts get churn
    (late arrival / early departure), periodic bursts, declared read
    SLOs (the admission controller's managed set) and cache pins or
    opt-outs.  No RNG is involved: the fleet is a pure function of
    ``(count, duration_s)``.
    """
    tenants: List[Dict[str, Any]] = []
    for i in range(count):
        tenant: Dict[str, Any] = {
            "name": f"t{i:04d}",
            "rate_tps": 2e3 * (1 + i % 7),
            "skew": 0.4 + 0.2 * (i % 4),
            "write_fraction": (0.0, 0.1, 0.3)[i % 3],
        }
        if i % 10 == 3:      # churn: arrives a quarter into the run
            tenant["arrive_s"] = duration_s * 0.25
        elif i % 10 == 6:    # churn: departs before the run ends
            tenant["depart_s"] = duration_s * 0.6
        elif i % 10 == 9:    # bursty: 4x spikes every half-run
            tenant["burst_every_s"] = duration_s * 0.5
            tenant["burst_s"] = duration_s * 0.125
            tenant["burst_x"] = 4.0
        if i % 10 == 0:      # SLO-bearing cohort (admission-managed)
            tenant["slo_read_p99_ns"] = 5000
            tenant["slo_target"] = 0.99
        if i % 25 == 5:      # pinned into the DRAM tier
            tenant["cache"] = True
        elif i % 25 == 15:   # opted out of the tier
            tenant["cache"] = False
        tenants.append(tenant)
    return tenants
