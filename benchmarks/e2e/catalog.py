"""Names, units, directions, bounds and the layer -> end-to-end map.

This is the one place a metric is declared.  ``BENCHMARK.json`` at the
repository root must agree with it (``test_bench_e2e.py`` checks), and
every report is validated against it.  Nothing here imports ``repro``.

The driver's contract wants every ``end_to_end`` metric on every
workload, never zero, never constant and steady from run to run, so
``BENCHMARK.json`` lists the three ``HOST`` metrics there and puts raw
``accesses_per_wall_s`` (this box's speed swings by 20-30% for minutes
at a time) and the eight simulated end-to-end metrics (which exist on
some workloads only, and are exact per seed) at the head of
``per_layer``.  The suite report prints all twelve as end-to-end.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: One common work scale for every workload (1.0 = the sizes in
#: README.md); chosen so that one unit runs in about 1.5-3 s and the
#: driver's 136 runs fit its time cap with room for a slower machine.
SCALE = 0.25
DEFAULT_SEED = 1234
HELD_OUT_SEED = 20260928
RUN_SECONDS = 15

WORKLOADS: Dict[str, str] = {
    "store_hybrid": (
        "Bare PolicySimulator + hybrid cleaner, 128x256 pages at 80%, "
        "bimodal 10/90, 10 warm-up + 90*scale turnovers; write-only, no "
        "controller/sim/service code: the bypass for those layers."),
    "tpca_timed": (
        "Paper Fig. 13-15: TPC-A at 20k TPS on 32x256 hybrid, prewarm(5), "
        "TimedSimulator.run(2.0*scale s); mixed read/write through "
        "core, sram, db and sim, no service code."),
    "svc_zipf_rw": (
        "4-shard EnvyService, zipf 6e6/s 2% writes + limited uniform "
        "1e6/s 10% writes, run(0.15*scale s); a sustained (not shed) "
        "write stream, executor about 2/3 of the wall."),
    "svc_read_cached": (
        "Read-only zipf 0.99 at 6e7/s through cache_pages=1024 on 4 "
        "shards, run(0.03*scale s); same executor, no flush/clean: a "
        "write-path gain that costs the read path shows here."),
    "svc_parity_rw": (
        "svc_zipf_rw's tenants under redundancy=parity, run(0.1*scale "
        "s); the only workload through _partition_expanded and "
        "service.redundancy."),
    "svc_fleet_1k": (
        "scale_fleet(1000) with cache, tenant caps and closed-loop "
        "admission, two run(0.05*scale s) on one service; loadgen "
        "set-up and frontend merge dominate, the memory-wall workload."),
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: (end-to-end metric, workload) pairs this metric is predicted to
    #: move; on every pair not named the prediction is *no change*.
    moves: Tuple[Tuple[str, str], ...] = ()
    bound: float = 0.0
    #: Workloads the metric exists on (() = every workload).
    on: Tuple[str, ...] = ()


_ALL = tuple(WORKLOADS)
_SVC = tuple(name for name in _ALL if name.startswith("svc_"))
_TIMED = tuple(name for name in _ALL if name != "store_hybrid")

#: Host-time end-to-end metrics: medians over the units of one run.
#: ``accesses_per_calib_mop`` is ``accesses_per_wall_s`` divided by the
#: speed (million iterations/s) of ``repro.perf.bench.calibrate``'s loop
#: measured right around the timed region: served accesses per million
#: calibration iterations' worth of time.  Its bound is three times the
#: widest ten-run spread seen on the sandbox (5.4%, README.md).
HOST: List[Metric] = [
    Metric("accesses_per_calib_mop", "1/Mop", "higher", bound=0.20),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
    Metric("setup_s", "s", "lower", bound=0.25),
]

#: Raw host speed; the bound is the one a quiet machine can hold.
RAW_WALL = Metric("accesses_per_wall_s", "1/s", "higher", bound=0.10)

#: Simulated end-to-end metrics: exact per seed.  The bound applies when
#: a change means to move them; a host-speed change must leave them (and
#: the fidelity digest) bit-identical, and the report flags any change.
SIMULATED: List[Metric] = [
    Metric("sim_accesses_per_s", "1/sim_s", "higher", bound=0.01,
           on=_TIMED),
    Metric("sim_read_p50_ns", "sim_ns", "lower", bound=0.01, on=_TIMED),
    Metric("sim_read_p999_ns", "sim_ns", "lower", bound=0.01, on=_TIMED),
    Metric("sim_write_p50_ns", "sim_ns", "lower", bound=0.01,
           on=("tpca_timed", "svc_zipf_rw", "svc_parity_rw",
               "svc_fleet_1k")),
    Metric("sim_write_p999_ns", "sim_ns", "lower", bound=0.01,
           on=("tpca_timed", "svc_zipf_rw", "svc_parity_rw",
               "svc_fleet_1k")),
    Metric("cleaning_cost", "copies/flush", "lower", bound=0.01,
           on=("store_hybrid", "tpca_timed", "svc_zipf_rw",
               "svc_parity_rw", "svc_fleet_1k")),
    Metric("wear_spread", "erases", "lower", bound=0.01,
           on=("store_hybrid", "tpca_timed")),
    Metric("failed_share", "share", "lower", bound=0.01),
]

END_TO_END: List[Metric] = HOST + [RAW_WALL] + SIMULATED


def _on(metric: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((metric, workload) for workload in workloads)


_WALL = "accesses_per_wall_s"
_SVC_WRITE = ("svc_zipf_rw", "svc_parity_rw", "svc_fleet_1k")
_EXECUTOR_WALL = _on(_WALL, "svc_zipf_rw", "svc_read_cached",
                     "svc_parity_rw")
_EXECUTOR_COUNTS = (_on("failed_share", *_SVC)
                    + _on("cleaning_cost", *_SVC_WRITE)
                    + _on("sim_write_p999_ns", *_SVC_WRITE))
_TPCA_COUNTS = (_on("sim_write_p999_ns", "tpca_timed")
                + _on("cleaning_cost", "tpca_timed"))
_STORE = (_on(_WALL, "store_hybrid") + _on("cleaning_cost", "store_hybrid")
          + _on("wear_spread", "store_hybrid"))
_CACHE = (_on("sim_read_p50_ns", "svc_read_cached")
          + _on("sim_accesses_per_s", "svc_read_cached")
          + _on(_WALL, "svc_read_cached"))
_REDUNDANCY = (_on(_WALL, "svc_parity_rw")
               + _on("failed_share", "svc_parity_rw"))
_ADMISSION = (_on("failed_share", "svc_fleet_1k")
              + _on("sim_read_p999_ns", "svc_fleet_1k"))
_LOADGEN = (_on(_WALL, "svc_fleet_1k", "svc_zipf_rw")
            + _on("peak_rss_mb", "svc_fleet_1k"))

#: Per-layer metrics, measured by the traced run.  The layer is the
#: name up to the last dot and is a module of ``repro``.
PER_LAYER: List[Metric] = [
    Metric("workloads.bimodal_draw_ns", "ns/access", "lower",
           _on(_WALL, "store_hybrid"), on=("store_hybrid",)),
    Metric("workloads.tpca_draw_ns", "ns/access", "lower",
           _on(_WALL, "tpca_timed"), on=("tpca_timed",)),
    Metric("cleaning.write_ns", "ns/access", "lower", _STORE,
           on=("store_hybrid",)),
    Metric("cleaning.flushes", "count", "lower", _STORE,
           on=("store_hybrid",)),
    Metric("cleaning.clean_copies", "count", "lower", _STORE,
           on=("store_hybrid",)),
    Metric("cleaning.transfers", "count", "lower", _STORE,
           on=("store_hybrid",)),
    Metric("cleaning.erases", "count", "lower", _STORE,
           on=("store_hybrid",)),
    Metric("cleaning.wear_swaps", "count", "lower", _STORE,
           on=("store_hybrid",)),
    Metric("core.access_ns", "ns/access", "lower",
           _on(_WALL, "tpca_timed", "svc_zipf_rw"), on=("tpca_timed",)),
    Metric("core.reads", "count", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("core.writes", "count", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("core.buffer_hits", "count", "higher", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("core.copy_on_writes", "count", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("core.flushes", "count", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("sram.mmu_hit_rate", "share", "higher", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("sram.buffer_hit_rate", "share", "higher", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("flash.busy_share.read", "share", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("flash.busy_share.host", "share", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("flash.busy_share.flush", "share", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("flash.busy_share.clean", "share", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("flash.busy_share.erase", "share", "lower", _TPCA_COUNTS,
           on=("tpca_timed",)),
    Metric("sim.self_ns", "ns/access", "lower",
           _on(_WALL, "tpca_timed") + _on("sim_accesses_per_s",
                                          "tpca_timed"),
           on=("tpca_timed",)),
    Metric("sim.host_stall_ns", "sim_ns", "lower",
           _on("sim_accesses_per_s", "tpca_timed"), on=("tpca_timed",)),
    Metric("sim.txn_per_sim_s", "1/sim_s", "higher",
           _on("sim_accesses_per_s", "tpca_timed"), on=("tpca_timed",)),
    Metric("service.loadgen.generate_s", "s", "lower", _LOADGEN, on=_SVC),
    Metric("service.loadgen.ns_per_request", "ns/request", "lower",
           _LOADGEN, on=_SVC),
    Metric("service.loadgen.requests", "count", "higher", _LOADGEN,
           on=_SVC),
    Metric("service.loadgen.throttled", "count", "lower",
           _on("failed_share", *_SVC), on=_SVC),
    Metric("service.loadgen.rss_delta_mb", "MB", "lower",
           _on("peak_rss_mb", "svc_fleet_1k"), on=_SVC),
    Metric("service.frontend.partition_ns", "ns/request", "lower",
           _on(_WALL, "svc_fleet_1k", "svc_parity_rw"), on=_SVC),
    Metric("service.frontend.self_s", "s", "lower",
           _on(_WALL, "svc_fleet_1k"), on=_SVC),
    Metric("service.executor.build_s", "s", "lower", _EXECUTOR_WALL,
           on=_SVC),
    Metric("service.executor.run_ns", "ns/row", "lower", _EXECUTOR_WALL,
           on=_SVC),
    Metric("service.executor.batches", "count", "lower",
           _EXECUTOR_COUNTS, on=_SVC),
    Metric("service.executor.coalesced_writes", "count", "higher",
           _EXECUTOR_COUNTS, on=_SVC),
    Metric("service.executor.rejected_queue", "count", "lower",
           _EXECUTOR_COUNTS, on=_SVC),
    Metric("service.executor.rejected_shed", "count", "lower",
           _EXECUTOR_COUNTS, on=_SVC),
    Metric("service.executor.retried", "count", "lower",
           _EXECUTOR_COUNTS, on=_SVC),
    Metric("service.executor.flushes", "count", "lower",
           _EXECUTOR_COUNTS, on=_SVC),
    Metric("service.executor.clean_copies", "count", "lower",
           _EXECUTOR_COUNTS, on=_SVC),
    Metric("service.executor.erases", "count", "lower",
           _EXECUTOR_COUNTS, on=_SVC),
    Metric("service.cache.hit_rate", "share", "higher", _CACHE,
           on=("svc_read_cached", "svc_fleet_1k")),
    Metric("service.cache.hits", "count", "higher", _CACHE,
           on=("svc_read_cached", "svc_fleet_1k")),
    Metric("service.cache.misses", "count", "lower", _CACHE,
           on=("svc_read_cached", "svc_fleet_1k")),
    Metric("service.cache.evictions", "count", "lower", _CACHE,
           on=("svc_read_cached", "svc_fleet_1k")),
    Metric("service.cache.invalidations", "count", "lower", _CACHE,
           on=("svc_read_cached", "svc_fleet_1k")),
    Metric("service.cache.delta_ns", "ns/row", "lower", _CACHE,
           on=("svc_read_cached",)),
    Metric("service.redundancy.replica_accesses", "count", "lower",
           _REDUNDANCY, on=("svc_parity_rw",)),
    Metric("service.redundancy.degraded_reads", "count", "lower",
           _REDUNDANCY, on=("svc_parity_rw",)),
    Metric("service.redundancy.delta_ns", "ns/request", "lower",
           _REDUNDANCY, on=("svc_parity_rw",)),
    Metric("service.admission.observe_s", "s", "lower", _ADMISSION,
           on=("svc_fleet_1k",)),
    Metric("service.admission.states.normal", "count", "higher",
           _ADMISSION, on=("svc_fleet_1k",)),
    Metric("service.admission.states.promoted", "count", "higher",
           _ADMISSION, on=("svc_fleet_1k",)),
    Metric("service.admission.states.throttled", "count", "lower",
           _ADMISSION, on=("svc_fleet_1k",)),
    Metric("service.admission.states.shed", "count", "lower",
           _ADMISSION, on=("svc_fleet_1k",)),
    # Predicted to move no end-to-end metric: every end-to-end run is
    # untraced at jobs=1.  Tracked for ROADMAP aims 1 and 4.
    Metric("obs.trace_overhead_x", "x", "lower", on=("svc_zipf_rw",)),
    Metric("perf.sweep.speedup_jobs2", "x", "higher",
           on=("store_hybrid",)),
    Metric("bench.span_overhead_x", "x", "lower"),
]

#: Per-layer metrics allowed an empty ``moves``.
MOVES_NOTHING = ("obs.trace_overhead_x", "perf.sweep.speedup_jobs2",
                 "bench.span_overhead_x")


def applies(metric: Metric, workload: str) -> bool:
    return not metric.on or workload in metric.on


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must contain, exactly."""
    def row(metric: Metric, bounded: bool) -> dict:
        entry = {"name": metric.name, "unit": metric.unit,
                 "better": metric.better}
        if bounded:
            entry["bound"] = metric.bound
        return entry

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [row(metric, True) for metric in HOST],
        "per_layer": [row(metric, False)
                      for metric in [RAW_WALL] + SIMULATED + PER_LAYER],
    }
