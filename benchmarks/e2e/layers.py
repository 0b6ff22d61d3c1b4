"""Per-layer metrics of one workload, measured from outside.

Coarse calls get spans: the layer's public callable is wrapped for the
length of the traced unit (:mod:`spans`).  Per-access layers are too
fine for a span per call, so they use a *ladder*: the same seeded access
stream is driven through successively taller stacks (generator alone,
then the controller, then the timed simulator) and a layer's cost is
the difference between two rungs.  Comparison rungs (cache off, no
redundancy, ``run(trace=True)``) rebuild the workload's service with one
knob changed and the same seed.  Only the traced unit is inside the
root span; rungs and probes are plain timers.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List

import repro.service.executor as executor_module
from repro.cleaning import PolicySimulator
from repro.perf.sweep import derive_seed, run_sweep
from repro.service import EnvyService, LoadGenerator, ShardExecutor
from repro.service.admission import ADMISSION_STATES, AdmissionController
from repro.sim import TimedSimulator

from spans import SpanRecorder, self_times

__all__ = ["trace_workload"]

_WORD_PAYLOAD = b"\x00" * 8


def _timed(fn: Callable[[], Any]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------
# store_hybrid
# ---------------------------------------------------------------------

def _sweep_speedup(seed: int, scale: float, failures: List[str]) -> float:
    """``run_sweep`` over two store_hybrid-shaped points, 1 vs 2 jobs."""
    points = [dict(policy="hybrid",
                   policy_kwargs={"partition_segments": 16},
                   locality="10/90", num_segments=128,
                   pages_per_segment=256, utilization=0.80,
                   buffer_pages=None, warmup_turnovers=2.0,
                   turnovers=24.0 * scale,
                   seed=derive_seed(seed, 100 + index))
              for index in range(2)]
    worker = "repro.perf.points:cleaning_cost_point"
    results, walls = [], []
    for jobs in (1, min(2, os.cpu_count() or 1)):
        start = time.perf_counter()
        results.append(run_sweep(worker, points, jobs=jobs))
        walls.append(time.perf_counter() - start)
    if results[0] != results[1]:
        failures.append("run_sweep results differ between jobs=1 and 2")
    return walls[0] / walls[1]


def _trace_store(workload, recorder: SpanRecorder, seed: int, scale: float,
                 failures: List[str]):
    with recorder.span(f"bench.{workload.name}"), recorder.wrapping(
            [(PolicySimulator, "run", "cleaning.run")]):
        outcome = workload.run()
    writes = workload.writes
    next_page = workload.make_stream().next_page

    def draw() -> None:
        for _ in range(writes):
            next_page()

    draw_ns = _timed(draw) * 1e9 / writes
    run_ns = recorder.total_s("cleaning.run") * 1e9 / writes
    sim = outcome["sim"]
    layers = {"workloads.bimodal_draw_ns": draw_ns,
              "cleaning.write_ns": run_ns - draw_ns,
              "perf.sweep.speedup_jobs2": _sweep_speedup(seed, scale,
                                                         failures)}
    for key in ("flushes", "clean_copies", "transfers", "erases",
                "wear_swaps"):
        layers[f"cleaning.{key}"] = sim[key]
    return outcome, layers


# ---------------------------------------------------------------------
# tpca_timed
# ---------------------------------------------------------------------

def _trace_tpca(workload, recorder: SpanRecorder, seed: int, scale: float,
                failures: List[str]):
    with recorder.span(f"bench.{workload.name}"), recorder.wrapping(
            [(TimedSimulator, "run", "sim.run")]):
        outcome = workload.run()
    stats = outcome["raw"]
    controller = workload.sim.controller
    metrics = controller.metrics

    # Rung 0: the generator alone, recording the stream for rung 1.
    twin = workload.build(seed)
    generator = twin.workload
    warmup_ns = int(workload.WARMUP_S * 1e9)
    end_ns = warmup_ns + int(workload.duration_s * 1e9)
    stream: List[tuple] = []

    def draw() -> None:
        next_transaction, accesses = (generator.next_transaction,
                                      generator.accesses)
        while True:
            txn = next_transaction()
            if txn.arrival_ns >= end_ns:
                break
            stream.append((txn.arrival_ns, accesses(txn)))

    draw_s = _timed(draw)
    # Warm-up transactions are executed too: wall cost is per access
    # executed, not per access measured.
    drawn = sum(len(accesses) for _, accesses in stream)
    measured = sum(len(accesses) for arrival_ns, accesses in stream
                   if arrival_ns >= warmup_ns)
    if measured != outcome["accesses"]:
        failures.append(f"ladder stream measures {measured} accesses, "
                        f"the timed run measured {outcome['accesses']}")
    run_ns = recorder.total_s("sim.run") * 1e9 / drawn

    # Rung 1: the stream straight into an identically prewarmed
    # controller, flushing while over threshold between transactions.
    replay = twin.controller

    def drive() -> None:
        write, read_timed = replay.write, replay.read_timed
        buffer, flush_one = replay.buffer, replay.flush_one
        for _, accesses in stream:
            for is_write, address in accesses:
                if is_write:
                    write(address, _WORD_PAYLOAD)
                else:
                    read_timed(address, 8)
            while buffer.over_threshold:
                flush_one()

    core_s = _timed(drive)
    replay.check_consistency()
    draw_ns = draw_s * 1e9 / drawn
    core_ns = core_s * 1e9 / drawn
    breakdown = stats.time_breakdown()
    layers = {
        "workloads.tpca_draw_ns": draw_ns,
        "core.access_ns": core_ns,
        "core.reads": metrics.reads,
        "core.writes": metrics.writes,
        "core.buffer_hits": metrics.buffer_hits,
        "core.copy_on_writes": metrics.copy_on_writes,
        "core.flushes": metrics.flushes,
        "sram.mmu_hit_rate": controller.mmu.hit_rate(),
        "sram.buffer_hit_rate": metrics.buffer_hit_rate,
        "sim.self_ns": run_ns - core_ns - draw_ns,
        "sim.host_stall_ns": stats.host_stall_ns,
        "sim.txn_per_sim_s": stats.throughput_tps,
    }
    for key, source in (("read", "read"), ("host", "host-write"),
                        ("flush", "flush"), ("clean", "clean"),
                        ("erase", "erase")):
        layers[f"flash.busy_share.{key}"] = breakdown.get(source, 0.0)
    return outcome, layers


# ---------------------------------------------------------------------
# svc_*
# ---------------------------------------------------------------------

def _service_targets(controllers: List[Any]):
    def keep_controller(record, args, result) -> None:
        controllers.append(result)

    def count_rows(record, args, result) -> None:
        record["rows"] = len(args[1])

    return [
        (EnvyService, "run", "service.frontend.run"),
        (LoadGenerator, "generate", "service.loadgen.generate"),
        (EnvyService, "partition", "service.frontend.partition"),
        (executor_module, "service_shard_point",
         "service.executor.shard_point"),
        (executor_module, "build_shard_controller",
         "service.executor.build", keep_controller),
        (ShardExecutor, "run", "service.executor.run", count_rows),
        (AdmissionController, "observe", "service.admission.observe"),
    ]


def _run_spanned(workload, service, recorder: SpanRecorder):
    """One unit of ``service`` under the service wrappers."""
    controllers: List[Any] = []
    with recorder.span(f"bench.{workload.name}"), recorder.wrapping(
            _service_targets(controllers)):
        outcome = workload.run_service(service)
    return controllers, outcome


def _executor_row_ns(recorder: SpanRecorder) -> float:
    rows = sum(s.get("rows", 0) for s in recorder.spans)
    return recorder.total_s("service.executor.run") * 1e9 / max(1, rows)


def _trace_service(workload, recorder: SpanRecorder, seed: int,
                   scale: float, failures: List[str]):
    controllers, outcome = _run_spanned(workload, workload.service,
                                        recorder)
    for controller in controllers:
        controller.check_consistency()
    runs = outcome["raw"]
    offered = outcome["offered"]
    admitted = sum(stats.requests_admitted for stats in runs)
    own = self_times(recorder.spans)
    generate_s = recorder.total_s("service.loadgen.generate")
    layers: Dict[str, float] = {
        "service.loadgen.generate_s": generate_s,
        "service.loadgen.ns_per_request": generate_s * 1e9 / offered,
        "service.loadgen.requests": admitted,
        "service.loadgen.throttled": sum(stats.requests_throttled
                                         for stats in runs),
        "service.loadgen.rss_delta_mb": sum(
            s["end_rss_kb"] - s["start_rss_kb"] for s in recorder.spans
            if s["name"] == "service.loadgen.generate") / 1024,
        "service.frontend.partition_ns": recorder.total_s(
            "service.frontend.partition") * 1e9 / max(1, admitted),
        "service.frontend.self_s": sum(
            own[s["id"]] for s in recorder.spans
            if s["name"] == "service.frontend.run") / 1e9,
        "service.executor.build_s": recorder.total_s(
            "service.executor.build"),
        "service.executor.run_ns": _executor_row_ns(recorder),
    }
    for key in ("batches", "coalesced_writes", "rejected_queue",
                "rejected_shed", "retried", "flushes", "clean_copies",
                "erases"):
        layers[f"service.executor.{key}"] = sum(
            shard[key] for stats in runs for shard in stats.shards)
    if workload.service.config.cache_pages:
        hits = sum(stats.cache_hits for stats in runs)
        misses = sum(stats.cache_misses for stats in runs)
        layers.update({
            "service.cache.hit_rate": hits / max(1, hits + misses),
            "service.cache.hits": hits,
            "service.cache.misses": misses,
            "service.cache.evictions": sum(stats.cache_evictions
                                           for stats in runs),
            "service.cache.invalidations": sum(
                stats.cache_invalidations for stats in runs)})
    if workload.service.admission is not None:
        layers["service.admission.observe_s"] = recorder.total_s(
            "service.admission.observe")
        states = list(outcome["sim"]["admission_states"].values())
        for state in ADMISSION_STATES:
            layers[f"service.admission.states.{state}"] = \
                states.count(state)

    if workload.name == "svc_read_cached":
        uncached = SpanRecorder(workload.name)
        _run_spanned(workload, workload.build(seed, cache_pages=0),
                     uncached)
        layers["service.cache.delta_ns"] = (
            layers["service.executor.run_ns"] - _executor_row_ns(uncached))
    if workload.name == "svc_parity_rw":
        plain = SpanRecorder(workload.name)
        _, plain_outcome = _run_spanned(
            workload, workload.build(seed, redundancy="none"), plain)
        layers.update({
            "service.redundancy.replica_accesses": sum(
                stats.replica_accesses for stats in runs),
            "service.redundancy.degraded_reads": sum(
                stats.degraded_reads for stats in runs),
            "service.redundancy.delta_ns": (
                recorder.total_s("service.frontend.run") * 1e9 / offered
                - plain.total_s("service.frontend.run") * 1e9
                / plain_outcome["offered"])})
    if workload.name == "svc_zipf_rw":
        service = workload.build(seed)
        plain_s = _timed(lambda: workload.run_service(service))
        service = workload.build(seed)
        obs_s = _timed(lambda: workload.run_service(service, trace=True))
        layers["obs.trace_overhead_x"] = obs_s / plain_s
    return outcome, layers


_TRACERS = {"store_hybrid": _trace_store, "tpca_timed": _trace_tpca}


def trace_workload(workload, recorder: SpanRecorder, seed: int,
                   scale: float, failures: List[str]):
    """Run the (already set-up) workload traced; (outcome, layers)."""
    tracer = _TRACERS.get(workload.name, _trace_service)
    return tracer(workload, recorder, seed, scale, failures)
