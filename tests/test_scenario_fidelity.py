"""Scenario fidelity: every simulated value the bench harnesses gated.

Each number the paper reports (cleaning cost, TPS, latency, lifetime)
is a *simulated* quantity and therefore a pure function of the seed — a
test oracle, not a benchmark.  This module holds the canonical
scenarios of the six retired bench suites (perf, service, attack,
redundancy, backends, obs), runs each once with ``jobs=1`` and checks
two things:

* the ``fidelity`` dict each scenario point produces is its case of the
  fidelity ledger (``tests/fidelity.py``) — whole-dict, so a missing or
  an extra key fails as loudly as a changed value.  The cases are copies
  of the 28 ``fidelity`` blocks of the last committed
  ``BENCH_*.smoke.json`` baselines and of the pre-rewrite cleaning-cost
  and TPC-A goldens; **never update them** to make a failure go away —
  a diff here is a determinism break;
* the simulated-time gates the harnesses enforced (shard scaling,
  cached-read speed-up, fleet SLO rate, attack detection and
  containment, redundancy drills, backend parity, zero-perturbation
  tracing), as plain asserts with the same thresholds.

How fast the simulator itself runs is ``BENCHMARK.json``'s question
(``benchmarks/e2e/``), not this file's: nothing here reads a clock.
"""

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from repro.backends.consistency import default_config, run_consistency
from repro.backends.trace import record_tpca, record_workload, replay_trace
from repro.core.config import EnvyConfig
from repro.obs.hub import ObservabilityHub
from repro.perf.points import cleaning_cost_point, tpca_point
from repro.service.adversary import attack_tenant, run_attack_scenario
from repro.service.bench import scale_fleet
from repro.service.chaos import run_redundancy_chaos
from repro.service.frontend import EnvyService, ServiceConfig
from repro.service.tenant import TenantSpec
from repro.sim import build_tpca_system

from .fidelity import LEDGER, mismatch


# ----------------------------------------------------------------------
# Shared fidelity shapes
# ----------------------------------------------------------------------

def _tpca_fidelity(stats):
    return {
        "transactions_completed": stats.transactions_completed,
        "read_p50_ns": stats.read_latency.p50,
        "read_p99_ns": stats.read_latency.p99,
        "write_p50_ns": stats.write_latency.p50,
        "write_p99_ns": stats.write_latency.p99,
        "pages_flushed": stats.pages_flushed,
        "clean_copies": stats.clean_copies,
        "erases": stats.erases,
    }


def _run_counters(stats):
    return {
        "requests_admitted": stats.requests_admitted,
        "requests_throttled": stats.requests_throttled,
        "requests_rejected_queue": stats.requests_rejected_queue,
        "requests_rejected_shed": stats.requests_rejected_shed,
        "accesses_served": stats.accesses_served,
        "simulated_ns": stats.simulated_ns,
        "accesses_per_simulated_s": round(stats.accesses_per_simulated_s, 1),
    }


def _tenant_dicts(stats):
    return {name: tenant.as_dict() for name, tenant in stats.tenants.items()}


def _tenants(spec):
    return [TenantSpec.from_spec(kwargs) for kwargs in spec["tenants"]]


def _config(spec, **overrides):
    return ServiceConfig(seed=spec["seed"], **spec["config"], **overrides)


# ----------------------------------------------------------------------
# perf: untimed cleaning cost and timed TPC-A
# ----------------------------------------------------------------------

def run_cleaning(spec):
    result = cleaning_cost_point(spec)
    fidelity = {field: getattr(result, field) for field in (
        "flushes", "clean_copies", "transfers", "erases", "wear_spread",
        "wear_swaps", "buffer_hits", "host_writes")}
    return {"": dict(fidelity, cleaning_cost=result.cleaning_cost)}


def run_tpca_point(spec):
    return {"": _tpca_fidelity(tpca_point(spec))}


def run_tpca_prewarmed(spec):
    """A prewarmed TPC-A run, down to the controller's cumulative
    counters and per-subsystem busy time."""
    simulator = build_tpca_system(**spec["system"])
    simulator.prewarm(spec["prewarm_s"])
    stats = simulator.run(spec["duration_s"], spec["warmup_s"])
    controller = simulator.controller
    metrics, wear = controller.metrics, controller.array.wear_stats()
    fidelity = {key: getattr(stats, key) for key in (
        "transactions_completed", "pages_flushed", "clean_copies", "erases",
        "simulated_ns", "host_stall_ns")}
    for op in ("read", "write"):
        latency = getattr(stats, f"{op}_latency")
        fidelity.update({f"{op}_{key}": getattr(latency, key)
                         for key in ("p50", "p99", "count", "total_ns")})
    return {"": dict(
        fidelity, wear_spread=controller.store.wear_spread(),
        wear_total_erases=wear.total_erases,
        wear_total_programs=wear.total_programs,
        metrics_flushes=metrics.flushes, metrics_writes=metrics.writes,
        metrics_reads=metrics.reads,
        # Cumulative since the prewarm reset, not the windowed stats value.
        busy_ns=metrics.busy_ns)}


# ----------------------------------------------------------------------
# service: strong scaling (a fixed Flash budget divided across shards)
# ----------------------------------------------------------------------

def _service(spec, num_shards, **overrides):
    assert spec["total_segments"] % num_shards == 0
    config = ServiceConfig(
        num_shards=num_shards,
        num_segments=spec["total_segments"] // num_shards,
        pages_per_segment=spec["pages_per_segment"], seed=spec["seed"],
        **dict(spec.get("config", {}), **overrides))
    return EnvyService(config, _tenants(spec))


def _service_point(service, duration_s):
    stats = service.run(duration_s, jobs=1)
    return dict(_run_counters(stats), tenants=_tenant_dicts(stats))


def run_service_points(spec):
    return {str(count): _service_point(_service(spec, count),
                                       spec["duration_s"])
            for count in spec["shard_counts"]}


def run_cached_pair(spec):
    """The same read-only zipf load with the DRAM tier off and on."""
    (count,) = spec["shard_counts"]
    return {
        "uncached": _service_point(_service(spec, count, cache_pages=0),
                                   spec["duration_s"]),
        "cached": _service_point(_service(spec, count), spec["duration_s"]),
    }


def run_scale_fleet(spec):
    """The 1000-tenant churn fleet, cache + closed-loop admission on.

    Two back-to-back runs on one service so the admission ladder acts
    on the first run's burn rates; the 1000 per-tenant dicts are folded
    into one sha256.
    """
    (count,) = spec["shard_counts"]
    service = _service(dict(spec, tenants=scale_fleet(spec["fleet"],
                                                      spec["duration_s"])),
                       count)
    runs = []
    for _ in range(2):
        stats = service.run(spec["duration_s"], jobs=1)
        runs.append(dict(_run_counters(stats), cache_hits=stats.cache_hits,
                         cache_misses=stats.cache_misses))
    slo = service.slo.report().values()
    states = {}
    for state in service.admission.report()["states"].values():
        states[state] = states.get(state, 0) + 1
    return {str(count): {
        "runs": runs,
        "tenants_digest": hashlib.sha256(json.dumps(
            _tenant_dicts(stats), sort_keys=True).encode()).hexdigest(),
        "slo_requests": sum(t.get("last_requests", 0) for t in slo),
        "slo_violations": sum(t.get("last_violations", 0) for t in slo),
        "admission_states": states,
    }}


# ----------------------------------------------------------------------
# attack: honest baseline -> attack -> mitigated, per attack family
# ----------------------------------------------------------------------

def run_attack(spec):
    config = _config(spec)
    attacker = attack_tenant(spec["attack"], config,
                             rate_tps=spec["attack_rate_tps"])
    return {"": run_attack_scenario(config, _tenants(spec), attacker,
                                    spec["duration_s"], jobs=1)}


# ----------------------------------------------------------------------
# redundancy: write-amp, whole-bank loss, online rebuild, rebalance
# ----------------------------------------------------------------------

def run_overhead(spec):
    points = {}
    for policy in spec["policies"]:
        service = EnvyService(_config(spec, redundancy=policy),
                              _tenants(spec))
        stats = service.run(spec["duration_s"], jobs=1)
        points[policy] = {
            "logical_pages": service.router.num_pages,
            "write_fanout": service.router.policy.write_fanout,
            "requests_admitted": stats.requests_admitted,
            "accesses_served": stats.accesses_served,
            "foreground_writes": sum(t.writes
                                     for t in stats.tenants.values()),
            "replica_accesses": stats.replica_accesses,
            "simulated_ns": stats.simulated_ns,
            "accesses_per_simulated_s": round(
                stats.accesses_per_simulated_s, 1),
            "tenants": _tenant_dicts(stats),
        }
    return points


def run_degraded(spec):
    """A whole bank dies half-way through the dry run's operation count."""
    points = {}
    for policy in spec["policies"]:
        drill = functools.partial(
            run_redundancy_chaos, _config(spec, redundancy=policy),
            duration_s=spec["duration_s"], victim=spec["victim"])
        dry = drill(kill_at=None)
        kill_at = max(1, int(dry.ops_seen * spec["kill_fraction"]))
        report = drill(kill_at=kill_at)
        counts, checks = report.counts, report.checks
        points[policy] = {
            "ops_seen_dry": dry.ops_seen,
            "kill_at": kill_at,
            "interrupted": report.interrupted,
            "stamped_writes": counts["stamped_writes"],
            "degraded_pages_checked": counts["degraded_pages_checked"],
            "degraded_mismatches": len(checks["degraded"]),
            "serving_mismatches": len(checks["serving"]),
            "recovery_mismatches": len(report.mismatches),
            "recovery": report.shards,
            "rebuilt_pages": counts["rebuilt_pages"],
            "rebuild_verified": counts["rebuild_verified"],
            "probe_mismatches": len(checks["probe"]),
            "final_mismatches": len(checks["final"]),
            "ok": report.ok,
        }
    return points


def run_rebuild(spec):
    """A foreground tenant served while a replacement bank rebuilds."""
    config = _config(spec, redundancy="mirror",
                          rebuild_rate_pps=spec["rebuild_rate_pps"])
    tenants = _tenants(spec)
    (name,) = (tenant.name for tenant in tenants)

    def p99(stats):
        tenant = stats.tenants[name]
        return max(tenant.read_latency.p99, tenant.write_latency.p99)

    healthy_p99 = p99(EnvyService(config, tenants).run(spec["duration_s"],
                                                       jobs=1))
    rebuilding = EnvyService(config, tenants)
    rebuilding.kill_bank(spec["victim"])
    scheduler = rebuilding.replace_bank(spec["victim"])
    stats = rebuilding.run(spec["duration_s"], jobs=1)
    status = rebuilding.rebuild_status()[spec["victim"]]
    rebuild_p99 = p99(stats)
    return {"": {
        "healthy_p99_ns": healthy_p99,
        "rebuild_p99_ns": rebuild_p99,
        "p99_ratio": round(rebuild_p99 / max(1, healthy_p99), 3),
        "rebuild_accesses": stats.rebuild_accesses,
        "degraded_reads": stats.degraded_reads,
        "degraded_writes": stats.degraded_writes,
        "rebuild_pages_done": status["pages_done"],
        "rebuild_pages_total": status["pages_total"],
        "rebuild_progress": status["progress"],
        "scheduler_done": scheduler.done,
        "accesses_served": stats.accesses_served,
        "simulated_ns": stats.simulated_ns,
        "tenants": _tenant_dicts(stats),
    }}


def run_rebalance(spec):
    """Ranged placement + a contiguous zipf hot head (scatter off) pins
    the whole head onto bank 0; ``rebalance`` must repair it."""
    config = _config(spec, placement="ranged")
    base = dict(rate_tps=spec["rate_tps"],
                write_fraction=spec["write_fraction"])
    uniform = EnvyService(config,
                          [TenantSpec("t", workload="uniform", **base)])
    tput_uniform = uniform.run(spec["duration_s"],
                               jobs=1).accesses_per_simulated_s
    skewed = EnvyService(config, [TenantSpec(
        "t", workload="zipf", skew=spec["skew"], scatter=False, **base)])
    tput_skewed = skewed.run(spec["duration_s"],
                             jobs=1).accesses_per_simulated_s
    plan = skewed.rebalance(spec["duration_s"], max_moves=spec["max_moves"],
                            tolerance=spec["tolerance"])
    tput_rebalanced = skewed.run(spec["duration_s"],
                                 jobs=1).accesses_per_simulated_s
    fidelity = {
        "tput_uniform": round(tput_uniform, 1),
        "tput_skewed": round(tput_skewed, 1),
        "tput_rebalanced": round(tput_rebalanced, 1),
        "skew_ratio": round(tput_skewed / max(1.0, tput_uniform), 4),
        "recovered_ratio": round(tput_rebalanced / max(1.0, tput_uniform),
                                 4),
    }
    for key in ("swaps", "remapped_pages", "imbalance_before",
                "imbalance_after", "bank_loads_before", "bank_loads_after"):
        fidelity[key] = plan[key]
    return {"": fidelity}


# ----------------------------------------------------------------------
# backends: one trace, one digest, every substrate
# ----------------------------------------------------------------------

def run_backend_consistency(spec):
    report = run_consistency(**spec)
    # Keyed by backend name, not spec string: the file spec embeds a
    # temp path that differs every run.
    backends = {entry["backend_name"]: {key: entry[key] for key in (
        "digest", "total_ns", "match", "reopen_digest")}
        for entry in report["backends"].values()}
    return {"": dict({key: report[key] for key in (
        "reference_digest", "consistent", "distinct_digests", "ops")},
        backends=backends)}


def run_default_parity(spec):
    base = default_config()
    trace, reference = record_tpca(base, **spec)
    direct = replay_trace(trace, replace(base, backend=None))
    named = replay_trace(trace, replace(base, backend="flash"))
    return {"": {
        "reference_digest": reference.digest,
        "digest_default": direct.digest,
        "digest_flash": named.digest,
        "ns_default": direct.total_ns,
        "ns_flash": named.total_ns,
        "ops": direct.ops,
    }}


def run_replay(spec):
    config = EnvyConfig.small(**spec["config"])
    trace, _ = record_workload(config, "uniform", spec["writes"],
                               seed=spec["seed"])
    result = replay_trace(trace, config)
    return {"": {"digest": result.digest, "ops": result.ops,
                 "total_ns": result.total_ns}}


# ----------------------------------------------------------------------
# obs: observation never perturbs
# ----------------------------------------------------------------------

def run_tpca_observed(spec):
    simulator = build_tpca_system(**spec["system"])
    simulator.prewarm(spec["prewarm_s"])
    hub = ObservabilityHub(simulator.controller) if spec["hub"] else None
    stats = simulator.run(spec["duration_s"])
    if hub is not None:
        hub.close()
        assert hub.total_events() > 0
    return {"": _tpca_fidelity(stats)}


def run_traced_service(spec):
    """The ``python -m repro trace`` default mix: online/batch SLO
    tenants plus a cleaner storm, request tracing on."""
    rate = spec["rate_tps"]
    service = EnvyService(
        _config(spec),
        [TenantSpec("online", rate_tps=rate / 2, skew=1.0,
                    write_fraction=0.3, slo_read_p99_ns=100_000,
                    slo_write_p99_ns=250_000,
                    slo_throughput_tps=rate / 20),
         TenantSpec("batch", rate_tps=rate / 4, workload="uniform",
                    write_fraction=0.8, slo_write_p99_ns=500_000),
         TenantSpec("storm", rate_tps=rate / 2, workload="clean_amp",
                    write_fraction=1.0)])
    stats = service.run(spec["duration_s"], jobs=1, trace=True)
    trace = service.last_trace
    return {"": {
        "accesses_served": stats.accesses_served,
        "trace_rows": len(trace.rows),
        "max_decomposition_error_ns": trace.validate(),
        "blame": trace.blame(),
        "slo": service.health_report().get("slo", {}),
    }}


# ----------------------------------------------------------------------
# The scenario table: "suite/scenario" -> (runner, spec)
# ----------------------------------------------------------------------

_CLEANING = dict(num_segments=32, pages_per_segment=64, utilization=0.80,
                 turnovers=2.0, warmup_turnovers=2.0, seed=1234)
_HYBRID8 = dict(policy="hybrid", policy_kwargs={"partition_segments": 8})
_SERVICE_32x64 = dict(total_segments=32, pages_per_segment=64,
                      duration_s=0.0002)
_SERVICE_128x64 = dict(total_segments=128, pages_per_segment=64,
                       shard_counts=[4])
_ATTACK = dict(config=dict(num_shards=2, num_segments=12,
                           pages_per_segment=16),
               duration_s=0.02, attack_rate_tps=1.5e5)
_ZIPFY_UNI = [dict(name="zipfy", rate_tps=1.5e5, skew=1.1,
                   write_fraction=0.4),
              dict(name="uni", rate_tps=1e5, workload="uniform",
                   write_fraction=0.4)]
_OBS_TPCA = dict(system=dict(num_segments=16, pages_per_segment=128,
                             rate_tps=8000.0, seed=7),
                 prewarm_s=5.0, duration_s=0.12)

SCENARIOS = {
    "perf/cleaning_greedy": (run_cleaning, dict(
        _CLEANING, policy="greedy", locality="50/50")),
    "perf/cleaning_locality": (run_cleaning, dict(
        _CLEANING, policy="locality", locality="10/90")),
    "perf/cleaning_greedy_10_90": (run_cleaning, dict(
        _CLEANING, policy="greedy", locality="10/90")),
    "perf/cleaning_locality_50_50": (run_cleaning, dict(
        _CLEANING, policy="locality", locality="50/50")),
    "perf/cleaning_hybrid8_10_90": (run_cleaning, dict(
        _CLEANING, **_HYBRID8, locality="10/90")),
    "perf/cleaning_hybrid8_50_50": (run_cleaning, dict(
        _CLEANING, **_HYBRID8, locality="50/50")),
    "perf/tpca_hybrid": (run_tpca_point, dict(
        rate_tps=20_000.0, num_segments=16, pages_per_segment=128,
        duration_s=0.04, warmup_s=0.01, prewarm_turnovers=3.0, seed=7)),
    "perf/tpca_prewarmed": (run_tpca_prewarmed, dict(
        _OBS_TPCA, system=dict(_OBS_TPCA["system"], rate_tps=20_000.0),
        duration_s=0.03, warmup_s=0.01)),

    # One saturating zipf tenant plus a rate-limited background tenant;
    # carries the >= 2.5x @ 4 shards gate.
    "service/zipf_canonical": (run_service_points, dict(
        _SERVICE_32x64, shard_counts=[1, 2, 4], seed=1234, tenants=[
            dict(name="hot", rate_tps=4e7, skew=1.0, write_fraction=0.3),
            dict(name="limited", rate_tps=4e6, workload="uniform",
                 rate_limit_tps=1e6)])),
    # The same offered load at mild and heavy zipf skew.
    "service/skew_spread": (run_service_points, dict(
        _SERVICE_32x64, shard_counts=[4], seed=99, tenants=[
            dict(name="mild", rate_tps=1.5e7, skew=0.6, write_fraction=0.3),
            dict(name="heavy", rate_tps=1.5e7, skew=1.3,
                 write_fraction=0.3)])),
    # Rates are transactions/s for tpca: one is ~17 accesses.
    "service/tpca_mix": (run_service_points, dict(
        _SERVICE_32x64, shard_counts=[2, 4], seed=7, tenants=[
            dict(name="zipf", rate_tps=1e7, skew=1.0, write_fraction=0.3),
            dict(name="tpca", rate_tps=1e6, workload="tpca")])),
    "service/cached_zipf": (run_cached_pair, dict(
        _SERVICE_128x64, duration_s=0.0005, seed=4242,
        config=dict(cache_pages=1024), tenants=[
            dict(name="reader", rate_tps=6e7, skew=0.99,
                 write_fraction=0.0)])),
    "service/service_scale": (run_scale_fleet, dict(
        _SERVICE_128x64, duration_s=0.002, seed=2026, fleet=1000,
        config=dict(cache_pages=512, cache_tenant_cap=0.25,
                    admission=True))),

    # Honest tenants run *below* saturation — wear attribution and
    # tails only mean something when the victims' writes get served.
    "attack/targeted_wear": (run_attack, dict(
        _ATTACK, seed=4242, attack="targeted-wear", tenants=_ZIPFY_UNI)),
    # The sweep attacker turns every admitted write into a flush and the
    # squatter pins FIFO slots, so both get a tighter quarantine.
    "attack/clean_amp": (run_attack, dict(
        _ATTACK, seed=97, attack="clean-amp",
        config=dict(_ATTACK["config"], quarantine_tps=2e4), tenants=[
            dict(name="zipfy", rate_tps=1.5e5, skew=1.0,
                 write_fraction=0.4),
            dict(name="txn", rate_tps=5e3, workload="tpca")])),
    "attack/squat": (run_attack, dict(
        _ATTACK, seed=555, attack="squat",
        config=dict(_ATTACK["config"], quarantine_tps=2e4),
        tenants=_ZIPFY_UNI)),

    "redundancy/overhead": (run_overhead, dict(
        config=dict(num_shards=4, num_segments=8, pages_per_segment=32),
        duration_s=0.0002, seed=21, policies=["none", "mirror", "parity"],
        tenants=[dict(name="mixed", rate_tps=1e7, skew=0.9,
                      write_fraction=0.5)])),
    "redundancy/degraded": (run_degraded, dict(
        config=dict(num_shards=3, num_segments=4, pages_per_segment=16),
        duration_s=0.0002, seed=5, victim=1, kill_fraction=0.5,
        policies=["mirror", "parity"])),
    "redundancy/rebuild": (run_rebuild, dict(
        config=dict(num_shards=3, num_segments=4, pages_per_segment=32),
        duration_s=0.0002, seed=11, victim=2, rebuild_rate_pps=2e5,
        tenants=[dict(name="fg", rate_tps=1e7, skew=0.8,
                      write_fraction=0.3)])),
    "redundancy/rebalance": (run_rebalance, dict(
        config=dict(num_shards=4, num_segments=4, pages_per_segment=32),
        duration_s=0.0002, seed=33, rate_tps=2e7, write_fraction=0.3,
        skew=0.99, max_moves=96, tolerance=1.05)),

    "backends/consistency": (run_backend_consistency,
                             dict(transactions=24, seed=0)),
    "backends/default_parity": (run_default_parity,
                                dict(transactions=16, seed=1)),
    "backends/replay_throughput": (run_replay, dict(
        writes=1200, seed=3,
        config=dict(num_segments=8, pages_per_segment=32))),

    "obs/tpca_dormant": (run_tpca_observed, dict(_OBS_TPCA, hub=False)),
    "obs/tpca_instrumented": (run_tpca_observed, dict(_OBS_TPCA, hub=True)),
    "obs/service_traced": (run_traced_service, dict(
        config=dict(num_shards=2, num_segments=8, pages_per_segment=32,
                    retry_limit=2, queue_capacity=32),
        rate_tps=4e6, duration_s=0.0004, seed=0)),
}

#: The scenario suites' cases of the fidelity ledger.
GOLDEN = sorted(case for case in LEDGER.cases if case.split("/")[0]
                in {scenario.split("/")[0] for scenario in SCENARIOS})


@functools.lru_cache(maxsize=None)
def produced(scenario):
    """``{case id: fidelity}`` of one scenario, run once per session."""
    runner, spec = SCENARIOS[scenario]
    return {f"{scenario}/{point}" if point else scenario: fidelity
            for point, fidelity in runner(spec).items()}


def block(case):
    return produced("/".join(case.split("/")[:2]))[case]


# ----------------------------------------------------------------------
# (a) exact fidelity
# ----------------------------------------------------------------------

@pytest.mark.parametrize("case", GOLDEN)
def test_fidelity_matches_golden(case):
    LEDGER.check(case, block(case))


def test_every_scenario_point_is_pinned():
    made = {case for scenario in SCENARIOS for case in produced(scenario)}
    assert made == set(GOLDEN)


def test_changed_missing_or_extra_key_is_a_mismatch():
    nested = LEDGER.cases["service/zipf_canonical/1"]
    pruned = dict(nested, extra=0, simulated_ns=-1,
                  tenants={"hot": nested["tenants"]["hot"]})
    assert mismatch(pruned, nested) == [
        "fidelity.extra: produced, not in the ledger",
        f"fidelity.simulated_ns: produced -1 != ledger "
        f"{nested['simulated_ns']}",
        "fidelity.tenants.limited: in the ledger, not produced"]


# ----------------------------------------------------------------------
# (b) the simulated-time gates
# ----------------------------------------------------------------------

def test_four_shards_serve_2_5x_one_shard():
    tput = {case: fidelity["accesses_per_simulated_s"] for case, fidelity
            in produced("service/zipf_canonical").items()}
    assert (tput["service/zipf_canonical/4"]
            >= 2.5 * tput["service/zipf_canonical/1"])


def test_cached_reads_beat_uncached():
    # Pure reads, so served accesses per simulated second is read
    # throughput; 1.2x because this short run is mostly cold misses.
    assert (block("service/cached_zipf/cached")["accesses_per_simulated_s"]
            >= 1.2 * block("service/cached_zipf/uncached")[
                "accesses_per_simulated_s"])


def test_fleet_sustains_throughput_within_slo():
    fleet = block("service/service_scale/4")
    assert fleet["runs"][-1]["accesses_per_simulated_s"] >= 1e6
    assert fleet["slo_requests"] > 0
    assert fleet["slo_violations"] <= 0.05 * fleet["slo_requests"]


#: Latency p99s come out of log-bucketed histograms, so a baseline in
#: the lowest microsecond reads a one-bucket shift as a 2x jump; the
#: containment gate compares against ``max(baseline, floor)``.
P99_FLOOR_NS = 2000


@pytest.mark.parametrize("family", ["targeted_wear", "clean_amp", "squat"])
def test_attack_is_detected_and_contained(family):
    scenario = block(f"attack/{family}")
    honest = set(scenario["honest"])
    assert honest
    assert scenario["attacker"] in scenario["attack"]["flagged"]
    for phase in ("baseline", "attack", "mitigated"):
        assert not honest & set(scenario[phase]["flagged"]), phase
    baseline = scenario["baseline"]["tenants"]
    mitigated = scenario["mitigated"]["tenants"]
    for tenant in sorted(honest):
        for metric in ("read_p99_ns", "write_p99_ns"):
            assert (mitigated[tenant][metric]
                    <= 2 * max(baseline[tenant][metric], P99_FLOOR_NS)), \
                (tenant, metric)
    assert (scenario["mitigated"]["lifetime_days"]
            >= 0.5 * scenario["baseline"]["lifetime_days"] > 0)


def test_redundancy_writes_are_charged():
    for policy in ("mirror", "parity"):
        assert block(f"redundancy/overhead/{policy}")[
            "replica_accesses"] > 0


@pytest.mark.parametrize("policy", ["mirror", "parity"])
def test_whole_bank_loss_drill_passes(policy):
    drill = block(f"redundancy/degraded/{policy}")
    assert drill["ok"], drill


def test_rebuild_progresses_with_bounded_foreground_tail():
    rebuild = block("redundancy/rebuild")
    assert rebuild["rebuild_pages_done"] > 0
    assert rebuild["p99_ratio"] <= 3.0


def test_rebalance_recovers_no_skew_throughput():
    assert block("redundancy/rebalance")["recovered_ratio"] >= 0.8


def test_backends_share_one_digest():
    consistency = block("backends/consistency")
    assert consistency["consistent"]
    assert set(consistency["backends"]) == {"flash", "ramdisk", "file",
                                            "onfi"}
    assert {entry["digest"] for entry in consistency["backends"].values()} \
        == {consistency["reference_digest"]}
    assert (consistency["backends"]["file"]["reopen_digest"]
            == consistency["reference_digest"])


def test_default_backend_is_the_flash_backend():
    parity = block("backends/default_parity")
    assert parity["digest_default"] == parity["digest_flash"]
    assert parity["ns_default"] == parity["ns_flash"]


def test_observation_never_perturbs():
    assert block("obs/tpca_instrumented") == block("obs/tpca_dormant")
    traced = block("obs/service_traced")
    assert traced["max_decomposition_error_ns"] == 0
    assert traced["slo"]
