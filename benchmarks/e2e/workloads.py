"""The six benchmark workloads, bare store to 1000-tenant service.

Each workload is a class with ``setup(seed, scale)`` (construction and
warm-up, timed as ``setup_s``), ``run()`` (the timed region; returns an
outcome) and ``check(outcome)`` (correctness, outside both timings).
``seed`` reaches only the generated inputs — layout, access streams,
tenant schedules — through :func:`repro.perf.sweep.derive_seed`.
Every run is a closed batch: the simulator consumes a schedule it
generates itself, in this one process, with ``jobs=1``.

An outcome is ``{"accesses", "offered", "sim", "metrics", "raw"}``:
served and offered simulated accesses, the canonical simulated
statistics (hashed into the ``fidelity_digest``), the simulated
end-to-end metrics that exist on this workload, and the program's own
result object(s) for ``check`` and the tracer.  README.md says why each
workload is here.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cleaning import PolicySimulator, make_policy
from repro.obs import LatencyHistogram
from repro.perf.sweep import derive_seed
from repro.service import EnvyService, ServiceConfig, TenantSpec
from repro.service.bench import scale_fleet
from repro.sim import build_tpca_system
from repro.workloads import BimodalWorkload

__all__ = ["WORKLOADS", "make_workload"]

Outcome = Dict[str, Any]


def _latency_metrics(reads: LatencyHistogram,
                     writes: LatencyHistogram) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if reads.count:
        metrics["sim_read_p50_ns"] = reads.p50
        metrics["sim_read_p999_ns"] = reads.p999
    if writes.count:
        metrics["sim_write_p50_ns"] = writes.p50
        metrics["sim_write_p999_ns"] = writes.p999
    return metrics


class StoreHybrid:
    """Untimed store + hybrid cleaner under a bimodal 10/90 write stream."""

    name = "store_hybrid"
    SEGMENTS, PAGES, UTILIZATION, LOCALITY = 128, 256, 0.80, "10/90"
    WARMUP_TURNOVERS, TURNOVERS = 10, 90

    def setup(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.sim = PolicySimulator(
            make_policy("hybrid", partition_segments=16), self.SEGMENTS,
            self.PAGES, self.UTILIZATION,
            layout_seed=derive_seed(seed, 0))
        self.live = self.sim.store.num_logical_pages
        self.stream = self.make_stream()
        self.writes = max(1, int(self.TURNOVERS * scale * self.live))
        self.sim.run(self.stream, 0,
                     warmup_writes=self.WARMUP_TURNOVERS * self.live)

    def make_stream(self) -> BimodalWorkload:
        return BimodalWorkload.from_label(self.live, self.LOCALITY,
                                          seed=derive_seed(self.seed, 1))

    def run(self) -> Outcome:
        result = self.sim.run(self.stream, self.writes)
        sim = {key: getattr(result, key) for key in (
            "host_writes", "buffer_hits", "flushes", "clean_copies",
            "transfers", "erases", "wear_spread", "wear_swaps")}
        return {"accesses": result.host_writes,
                "offered": self.writes, "sim": sim, "raw": result,
                "metrics": {"cleaning_cost": result.cleaning_cost,
                            "wear_spread": result.wear_spread,
                            "failed_share": 0.0}}

    def check(self, outcome: Outcome) -> List[str]:
        failures = []
        self.sim.store.check_invariants()
        sim = outcome["sim"]
        if sim["host_writes"] != self.writes:
            failures.append(f"drove {sim['host_writes']} writes, "
                            f"wanted {self.writes}")
        # The buffer is full after warm-up: every miss flushes one page.
        if sim["flushes"] != sim["host_writes"] - sim["buffer_hits"]:
            failures.append("flushes != host writes - buffer hits")
        return failures


class TpcaTimed:
    """The paper's Figure 13-15 experiment: timed TPC-A at 20k TPS."""

    name = "tpca_timed"
    SEGMENTS, PAGES, RATE_TPS = 32, 256, 20_000.0
    PREWARM_TURNOVERS, DURATION_S, WARMUP_S = 5.0, 2.0, 0.05

    def setup(self, seed: int, scale: float) -> None:
        self.duration_s = self.DURATION_S * scale
        self.sim = self.build(seed)

    def build(self, seed: int):
        sim = build_tpca_system(
            num_segments=self.SEGMENTS, pages_per_segment=self.PAGES,
            rate_tps=self.RATE_TPS, policy="hybrid",
            seed=derive_seed(seed, 0))
        sim.prewarm(self.PREWARM_TURNOVERS, seed=derive_seed(seed, 1))
        return sim

    def run(self) -> Outcome:
        stats = self.sim.run(self.duration_s, warmup_s=self.WARMUP_S)
        accesses = stats.read_latency.count + stats.write_latency.count
        wear_spread = self.sim.controller.store.wear_spread()
        sim = {
            "simulated_ns": stats.simulated_ns,
            "transactions_offered": stats.transactions_offered,
            "transactions_completed": stats.transactions_completed,
            "reads": stats.read_latency.state_dict(),
            "writes": stats.write_latency.state_dict(),
            "pages_flushed": stats.pages_flushed,
            "clean_copies": stats.clean_copies,
            "erases": stats.erases,
            "busy_ns": dict(sorted(stats.busy_ns.items())),
            "host_stall_ns": stats.host_stall_ns,
            "wear_spread": wear_spread,
        }
        metrics = {"sim_accesses_per_s": accesses / stats.simulated_seconds,
                   "cleaning_cost": stats.cleaning_cost,
                   "wear_spread": wear_spread, "failed_share": 0.0}
        metrics.update(_latency_metrics(stats.read_latency,
                                        stats.write_latency))
        return {"accesses": accesses, "offered": accesses, "sim": sim,
                "raw": stats, "metrics": metrics}

    def check(self, outcome: Outcome) -> List[str]:
        failures = []
        self.sim.controller.check_consistency()
        sim = outcome["sim"]
        if sim["transactions_completed"] != sim["transactions_offered"]:
            failures.append("transactions completed != offered")
        return failures


class _ServiceWorkload:
    """Shared shape of the ``svc_*`` workloads: one EnvyService, ``RUNS``
    back-to-back ``run(duration, jobs=1)`` calls.  Schedule generation
    and shard build happen inside ``run``, as they do for every user."""

    name = ""
    SHARDS, SEGMENTS, PAGES = 4, 16, 128
    DURATION_S, RUNS = 0.1, 1
    CONFIG: Dict[str, Any] = {}

    def tenants(self, duration_s: float) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def setup(self, seed: int, scale: float) -> None:
        self.duration_s = self.DURATION_S * scale
        self.service = self.build(seed)

    def build(self, seed: int, **overrides: Any) -> EnvyService:
        config = ServiceConfig(
            num_shards=self.SHARDS, num_segments=self.SEGMENTS,
            pages_per_segment=self.PAGES, seed=derive_seed(seed, 0),
            **dict(self.CONFIG, **overrides))
        return EnvyService(config, [
            TenantSpec.from_spec(spec)
            for spec in self.tenants(self.duration_s)])

    def run(self) -> Outcome:
        return self.run_service(self.service)

    def run_service(self, service: EnvyService,
                    trace: bool = False) -> Outcome:
        runs = [service.run(self.duration_s, jobs=1, trace=trace)
                for _ in range(self.RUNS)]
        offered = sum(stats.requests_offered for stats in runs)
        served = sum(stats.accesses_served for stats in runs)
        simulated_ns = sum(stats.simulated_ns for stats in runs)
        reads, writes = LatencyHistogram(), LatencyHistogram()
        flushes = clean_copies = 0
        for stats in runs:
            for tenant in stats.tenants.values():
                reads.merge(tenant.read_latency)
                writes.merge(tenant.write_latency)
            flushes += sum(shard["flushes"] for shard in stats.shards)
            clean_copies += sum(shard["clean_copies"]
                                for shard in stats.shards)
        metrics = {"sim_accesses_per_s": served * 1e9 / simulated_ns,
                   "failed_share": (offered - served) / offered,
                   "cleaning_cost": clean_copies / max(1, flushes)}
        metrics.update(_latency_metrics(reads, writes))
        sim: Dict[str, Any] = {"runs": [stats.as_dict() for stats in runs]}
        if service.admission is not None:
            sim["admission_states"] = service.admission.report()["states"]
        return {"accesses": served, "offered": offered, "sim": sim,
                "raw": runs, "metrics": metrics}

    def check(self, outcome: Outcome) -> List[str]:
        failures = []
        for index, stats in enumerate(outcome["raw"]):
            for name, tenant in stats.tenants.items():
                accounted = (tenant.throttled + tenant.rejected
                             + tenant.reads + tenant.writes)
                if tenant.offered != accounted:
                    failures.append(
                        f"run {index} tenant {name}: offered "
                        f"{tenant.offered} != accounted {accounted}")
            if stats.requests_admitted != (stats.requests_offered
                                           - stats.requests_throttled):
                failures.append(f"run {index}: admitted != offered - "
                                f"throttled")
            if sum(shard["accesses"] for shard in stats.shards) \
                    != stats.accesses_served:
                failures.append(f"run {index}: shard accesses do not sum "
                                f"to accesses served")
        return failures


class SvcZipfRw(_ServiceWorkload):
    """Sustained mixed read/write service traffic, no cache, no copies."""

    name = "svc_zipf_rw"
    DURATION_S = 0.15

    def tenants(self, duration_s: float) -> List[Dict[str, Any]]:
        return [dict(name="hot", rate_tps=6e6, skew=1.0,
                     write_fraction=0.02),
                dict(name="limited", rate_tps=1e6, workload="uniform",
                     rate_limit_tps=1.2e6, write_fraction=0.1)]


class SvcParityRw(SvcZipfRw):
    """The same tenants with RAID-5-style parity across the banks."""

    name = "svc_parity_rw"
    DURATION_S = 0.1
    CONFIG = {"redundancy": "parity"}


class SvcReadCached(_ServiceWorkload):
    """Read-only zipf through the DRAM cache tier: no flush, no clean."""

    name = "svc_read_cached"
    SEGMENTS, PAGES, DURATION_S = 32, 64, 0.03
    CONFIG = {"cache_pages": 1024}

    def tenants(self, duration_s: float) -> List[Dict[str, Any]]:
        return [dict(name="reader", rate_tps=6e7, skew=0.99,
                     write_fraction=0.0)]


class SvcFleet1k(_ServiceWorkload):
    """1000 churning tenants, cache + closed-loop admission, two runs so
    the admission ladder acts on the first run's burn rates."""

    name = "svc_fleet_1k"
    SEGMENTS, PAGES, DURATION_S, RUNS = 32, 64, 0.05, 2
    CONFIG = {"cache_pages": 512, "cache_tenant_cap": 0.25,
              "admission": True}

    def tenants(self, duration_s: float) -> List[Dict[str, Any]]:
        return scale_fleet(1000, duration_s)


WORKLOADS = {cls.name: cls for cls in (
    StoreHybrid, TpcaTimed, SvcZipfRw, SvcReadCached, SvcParityRw,
    SvcFleet1k)}


def make_workload(name: str):
    return WORKLOADS[name]()
