"""Command-line interface: ``python -m repro <command>``.

The front door to the paper's experiments and the service demos:
``python -m repro --help`` lists the commands, ``python -m repro COMMAND
--help`` their flags.  Each command is one ``cmd_<name>`` function whose
docstring is its help line; flags several commands take are declared once,
in a flag group, and ``--smoke`` lays a preset of flag values over the
command line when the command runs.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .analysis import banner, format_table


def _refuse(message: str):
    """A usage error: one ``error:`` line on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


@contextlib.contextmanager
def _refusals():
    """Around building a command's config or tenant specs (never a run):
    a value they refuse with ``ValueError`` is a usage error."""
    try:
        yield
    except ValueError as exc:
        _refuse(str(exc))


def _smoke(args: argparse.Namespace, preset: dict) -> argparse.Namespace:
    """``args`` with the ``--smoke`` preset's flag values laid over them."""
    return (argparse.Namespace(**{**vars(args), **preset}) if args.smoke
            else args)


def _verdict(failures, ok: str) -> int:
    """A smoke check's report: every failure as ``FAIL ...`` (exit 1), or
    the one ``ok`` line (exit 0)."""
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(ok)
    return 0


def _reruns(run, baseline, what: str):
    """Determinism: ``run(jobs)`` again at ``--jobs`` 1 and 2; each result
    that differs from ``baseline`` is a failure."""
    return [f"{label} changed the {what}"
            for jobs, label in ((1, "rerun with the same seed"),
                                (2, "--jobs 2"))
            if run(jobs) != baseline]


def _fault_plan(args: argparse.Namespace):
    """The ``--plan`` preset seeded with ``--seed`` (``none``: no plan)."""
    from .faults import FaultPlan

    if args.plan == "none":
        return None
    return getattr(FaultPlan, args.plan)(seed=args.seed)


def cmd_info(args: argparse.Namespace) -> int:
    """paper configuration and cost tables"""
    from .core import EnvyConfig, TpcParams, system_cost

    config = EnvyConfig.paper()
    cost = system_cost(config)
    tpc = TpcParams()
    rows = [
        ["Flash array", f"{config.flash.array_bytes >> 30} GiB, "
         f"{config.flash.num_segments} segments"],
        ["Page size", f"{config.page_bytes} B"],
        ["SRAM buffer / table",
         f"{config.sram.buffer_bytes >> 20} MiB / "
         f"{config.page_table_bytes >> 20} MiB"],
        ["Timing", f"read {config.flash.read_ns} ns, program "
         f"{config.flash.program_ns} ns, erase "
         f"{config.flash.erase_ns // 10**6} ms"],
        ["TPC-A", f"{tpc.num_accounts:,} accounts / "
         f"{tpc.num_tellers:,} tellers / {tpc.num_branches} branches"],
        ["System cost (1994 $)", f"${cost.total_dollars:,.0f} "
         f"(pure SRAM: ${cost.sram_only_alternative():,.0f})"],
    ]
    print(banner("eNVy paper configuration (Figure 12 / Figure 1)"))
    print(format_table(["Parameter", "Value"], rows))
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    """Figure 8 cleaning-cost comparison"""
    from .cleaning import PolicySimulator, make_policy
    from .perf import run_sweep

    localities = args.localities or ["50/50", "20/80", "10/90", "5/95"]
    policies = [("greedy", {}), ("locality", {}),
                ("hybrid", {"partition_segments": args.partition})]
    with _refusals():
        # Each policy on the array the sweep's points build, before the
        # sweep: a geometry a policy refuses is refused here.
        for name, kwargs in policies:
            PolicySimulator(make_policy(name, **kwargs), args.segments,
                            args.pages, buffer_pages=0)
    print(banner(f"Figure 8: cleaning cost vs locality "
                 f"({args.segments} segments x {args.pages} pages)"))
    points = [dict(policy=name, policy_kwargs=kwargs, locality=label,
                   num_segments=args.segments, pages_per_segment=args.pages,
                   turnovers=3, warmup_turnovers=8)
              for label in localities
              for name, kwargs in policies]
    results = run_sweep("repro.perf.points:cleaning_cost_point", points,
                        jobs=args.jobs)
    rows = []
    for index, label in enumerate(localities):
        chunk = results[index * len(policies):(index + 1) * len(policies)]
        rows.append([label] + [result.cleaning_cost for result in chunk])
    print(format_table(["Locality", "Greedy", "Locality gathering",
                        f"Hybrid({args.partition})"], rows))
    return 0


def _print_run_summary(stats, before_cost, after_cost) -> None:
    """The Quantity/Value table ``tpca`` and ``observe`` print (throughput
    first, then ``before_cost``, the cleaning cost and ``after_cost``
    rows) and the time-breakdown line."""
    rows = [["Throughput", f"{stats.throughput_tps:,.0f} TPS"
             + (" (saturated)" if stats.saturated else "")],
            *before_cost,
            ["Cleaning cost", f"{stats.cleaning_cost:.2f}"],
            *after_cost]
    print(format_table(["Quantity", "Value"], rows))
    shares = ", ".join(f"{k} {v:.0%}"
                       for k, v in stats.time_breakdown().items())
    print(f"\ntime breakdown: {shares}")


def cmd_tpca(args: argparse.Namespace) -> int:
    """one timed TPC-A simulation point"""
    from .sim import build_tpca_system

    with _refusals():
        simulator = build_tpca_system(utilization=args.utilization,
                                      rate_tps=args.rate)
    print(f"simulating {args.rate:,.0f} TPS for {args.duration}s "
          f"(plus warm-up)...")
    # As simulate_tpca: ten free-space turnovers of prewarm, a third of
    # the run again as warm-up.
    simulator.prewarm(10.0)
    stats = simulator.run(args.duration, args.duration / 3)
    print(banner(f"TPC-A at {args.rate:,.0f} requested TPS, "
                 f"{args.utilization:.0%} utilization"))
    read, write = stats.read_latency, stats.write_latency
    _print_run_summary(stats, [
        ["Read latency", f"{read.mean_ns:.0f} ns "
         f"(p50 {read.p50}, p99 {read.p99})"],
        ["Write latency", f"{write.mean_ns:.0f} ns "
         f"(p50 {write.p50}, p99 {write.p99})"],
        ["Pages flushed/s", f"{stats.page_flush_rate:,.0f}"]], [])
    return 0


def cmd_lifetime(args: argparse.Namespace) -> int:
    """Section 5.5 lifetime calculation"""
    from .core import EnvyConfig, estimate_lifetime

    with _refusals():
        estimate = estimate_lifetime(EnvyConfig.paper(),
                                     page_flush_rate=args.flush_rate,
                                     cleaning_cost=args.cost)
    print(banner("Section 5.5 lifetime model (2 GB, 1M-cycle parts)"))
    print(f"page flush rate : {args.flush_rate:,.0f}/s")
    print(f"cleaning cost   : {args.cost}")
    print(f"lifetime        : {estimate}")
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    """verify the paper's fast claims"""
    from .paper import verify_claims

    print(banner("Paper-claim verification (fast checks)"))
    failures = 0
    for claim, passed in verify_claims():
        if passed is None:
            status = f"see benchmarks/{claim.bench}"
        elif passed:
            status = "PASS"
        else:
            status = "FAIL"
            failures += 1
        print(f"  [{status:^28}] {claim.section:>12}: "
              f"{claim.statement}")
    print()
    print("slow claims are regenerated by "
          "`pytest benchmarks/ --benchmark-only`.")
    return 1 if failures else 0


def cmd_demo(args: argparse.Namespace) -> int:
    """tiny end-to-end demonstration"""
    from .core import EnvyConfig, EnvySystem

    system = EnvySystem(EnvyConfig.small())
    system.write(0, b"eNVy says hello")
    print(f"wrote and read back: {system.read(0, 15)!r}")
    system.power_cycle()
    print(f"after power cycle  : {system.read(0, 15)!r}")
    print(f"latencies: read "
          f"{system.read_timed(0, 8)[1]} ns, "
          f"buffered write {system.write(1, b'!')} ns")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """workload under injected device faults"""
    import random

    from .core import EnvyConfig, EnvySystem

    with _refusals():
        config = EnvyConfig.small(num_segments=args.segments,
                                  pages_per_segment=args.pages,
                                  fault_plan=_fault_plan(args),
                                  reserve_segments=args.reserves)
    system = EnvySystem(config)
    rng = random.Random(args.seed)
    page_bytes = config.page_bytes
    num_pages = system.size_bytes // page_bytes
    shadow = {}
    errors = 0
    for _ in range(args.writes):
        page = rng.randrange(num_pages)
        data = bytes([rng.randrange(256)]) * page_bytes
        system.write(page * page_bytes, data)
        shadow[page] = data
    system.drain()
    for page, data in shadow.items():
        if system.read(page * page_bytes, page_bytes) != data:
            errors += 1
    system.check_consistency()
    print(banner(f"{args.writes:,} page writes under the '{args.plan}' "
                 f"fault plan (seed {args.seed})"))
    rows = [[key, str(value)]
            for key, value in system.health_report().items()]
    rows.append(["data errors after readback", str(errors)])
    print(format_table(["Health counter", "Value"], rows))
    return 1 if errors else 0


def cmd_recover(args: argparse.Namespace) -> int:
    """chaos demo: power loss + recovery from flash"""
    from .core.chaos import run_chaos
    from .core.config import EnvyConfig

    with _refusals():
        config = EnvyConfig.small(num_segments=args.segments,
                                  pages_per_segment=args.pages,
                                  fault_plan=_fault_plan(args),
                                  checkpoint_interval_flushes=args.checkpoint)
    # Size the kill-point space with a dry run, then kill inside it.
    dry = run_chaos(config, transactions=args.transactions, kill_at=None,
                    seed=args.seed, recover=False)
    kill_at = args.kill_at or max(1, dry.ops_seen // 2)
    if not 1 <= kill_at <= dry.ops_seen:
        _refuse(f"--kill-at {kill_at} is outside this run's flash ops "
                f"1..{dry.ops_seen} (0 = midpoint)")
    print(f"replaying {args.transactions} TPC-A transactions "
          f"({dry.ops_seen} flash ops), cutting power at op {kill_at}"
          + (" (torn program)" if args.tear else "") + "...")
    result = run_chaos(config, transactions=args.transactions,
                       kill_at=kill_at, tear=args.tear, seed=args.seed)
    report = result.reports[0]
    print(banner("Full power-loss recovery from Flash alone"))
    rows = [[key, str(value)] for key, value in report.as_dict().items()]
    rows.append(["committed pages", str(result.committed_pages)])
    rows.append(["page mismatches", str(len(result.mismatches))])
    health = result.health or {}
    for key in ("write_latency_p50_ns", "write_latency_p99_ns",
                "read_latency_p99_ns"):
        rows.append([key + " (pre-cut)", str(health.get(key, 0))])
    print(format_table(["Recovery statistic", "Value"], rows))
    if result.ok:
        print("\nrecovered store matches the committed prefix exactly.")
        return 0
    print(f"\nMISMATCH on (bank, page) {result.mismatches[:10]}")
    return 1


def _print_histogram(title: str, hist, width: int = 40) -> None:
    """Log-linear ASCII rendering of a latency histogram's octaves."""
    print(f"\n{title}: {hist}")
    octaves = hist.octaves()
    if not octaves:
        return
    peak = max(count for _, _, count in octaves)
    for low, high, count in octaves:
        bar = "#" * (round(width * count / peak) if count else 0)
        if count and not bar:
            bar = "."
        print(f"  {low:>11,}..{high:<11,} {count:>9,} {bar}")


def _print_wear_heatmap(controller) -> None:
    """Per-bank rows of per-segment erase-cycle glyphs."""
    glyphs = "▁▂▃▄▅▆▇█"
    counts = controller.array.wear_stats().erase_counts
    lo, hi = min(counts), max(counts)
    span = max(1, hi - lo)
    per_bank = controller.array.params.segments_per_bank
    print(f"\nwear heatmap (erase cycles {lo}..{hi} per physical "
          f"segment, {glyphs[0]}=least {glyphs[-1]}=most):")
    for start in range(0, len(counts), per_bank):
        row = "".join(glyphs[min(len(glyphs) - 1,
                                 (c - lo) * len(glyphs) // (span + 1))]
                      for c in counts[start:start + per_bank])
        print(f"  bank {start // per_bank:>2} {row}")


def _print_observe_dashboard(controller, hub, stats) -> None:
    metrics = controller.metrics
    read, write = metrics.read_latency, metrics.write_latency
    print(banner(f"observability dashboard "
                 f"({stats.simulated_seconds:.3f}s simulated)"))
    _print_run_summary(stats, [
        ["Read latency (ns)",
         f"mean {read.mean_ns:.0f}  p50 {read.p50}  p90 {read.p90}  "
         f"p99 {read.p99}  p999 {read.p999}"],
        ["Write latency (ns)",
         f"mean {write.mean_ns:.0f}  p50 {write.p50}  p90 {write.p90}  "
         f"p99 {write.p99}  p999 {write.p999}"]], [
        ["Events observed", f"{hub.total_events():,} "
         f"({hub.dropped_events:,} dropped)"],
        ["Sampler windows", f"{len(hub.sampler.windows)}"]])
    by_kind = hub.time_by_kind()
    if by_kind:
        top = ", ".join(f"{kind} {ns / 1e6:,.1f}ms"
                        for kind, ns in list(by_kind.items())[:6])
        print(f"simulated span time by event kind: {top}")
    _print_histogram("write latency histogram (ns)", write)
    _print_histogram("read latency histogram (ns)", read)
    _print_wear_heatmap(controller)
    window = hub.latest_window()
    if window is not None:
        print(f"\nlast {window.duration_ns / 1e6:.2f}ms window: "
              f"{window.writes} writes, {window.flushes} flushes, "
              f"{window.clean_copies} clean copies, "
              f"buffer {window.buffer_occupancy:.0%} full, "
              f"cleaning backlog {window.cleaning_backlog_pages} pages")


def _print_self_profile(profiler, stats, wall_s: float) -> None:
    import io
    import pstats

    simulated_s = stats.simulated_seconds
    print(banner("self-profile: host cost of simulated time"))
    print(f"wall clock        : {wall_s:.2f}s for {simulated_s:.3f}s "
          f"simulated")
    if simulated_s > 0:
        print(f"host per simulated: {wall_s / simulated_s:.1f}s "
              f"wall per simulated second")
    if profiler is not None:
        out = io.StringIO()
        pstats.Stats(profiler, stream=out).sort_stats(
            "cumulative").print_stats(12)
        lines = [ln for ln in out.getvalue().splitlines() if ln.strip()]
        print("\nhottest paths (cumulative):")
        for line in lines[2:16]:
            print(f"  {line}")


def _export_failures(written: dict):
    """Smoke-check the export files: ``(failures, summary line)``."""
    import json

    failures = []
    with open(written["trace.json"]) as handle:
        trace = json.load(handle)
    events = trace.get("traceEvents", [])
    span_tids = {e.get("tid") for e in events if e.get("ph") == "X"}
    track_names = {e["args"]["name"] for e in events
                   if e.get("ph") == "M" and e.get("name") == "thread_name"}
    if "host ops" not in track_names or "cleaner" not in track_names:
        failures.append("trace.json: host/cleaner tracks missing")
    if 1 not in span_tids or 3 not in span_tids:
        failures.append("trace.json: no spans on the host/cleaner tracks")
    with open(written["metrics.prom"]) as handle:
        prom = handle.read()
    if not prom.startswith("# HELP"):
        failures.append("metrics.prom: not Prometheus text exposition")
    for needed in ("envy_writes_total", "envy_write_latency_ns_bucket",
                   'le="+Inf"'):
        if needed not in prom:
            failures.append(f"metrics.prom: missing {needed}")
    with open(written["events.jsonl"]) as handle:
        count = 0
        for line in handle:
            json.loads(line)
            count += 1
    if count == 0:
        failures.append("events.jsonl: empty")
    with open(written["timeseries.json"]) as handle:
        windows = json.load(handle)
    if not isinstance(windows, list) or not windows:
        failures.append("timeseries.json: no windows")
    return failures, (f"exports validated: {len(events)} trace events, "
                      f"{count} jsonl events, {len(windows)} windows.")


#: ``observe --smoke``: a small fixed run whose exports are validated.
OBSERVE_SMOKE = dict(segments=16, pages=64, rate=8000.0, duration=0.03,
                     window_us=1000)


def cmd_observe(args: argparse.Namespace) -> int:
    """instrumented run: dashboard + timeline exports"""
    import time

    from .obs import ObservabilityHub
    from .sim import build_tpca_system

    args = _smoke(args, OBSERVE_SMOKE)
    with _refusals():
        simulator = build_tpca_system(num_segments=args.segments,
                                      pages_per_segment=args.pages,
                                      utilization=args.utilization,
                                      rate_tps=args.rate, policy=args.policy,
                                      seed=args.seed)
    print(f"observing {args.rate:,.0f} TPS for {args.duration}s simulated "
          f"({args.segments}x{args.pages} pages, {args.policy})...")
    simulator.prewarm(5.0 if args.smoke else 10.0)
    hub = ObservabilityHub(simulator.controller,
                           sample_interval_ns=args.window_us * 1000)
    profiler = None
    if args.self_profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    wall0 = time.perf_counter()
    stats = simulator.run(args.duration)
    wall_s = time.perf_counter() - wall0
    if profiler is not None:
        profiler.disable()
    hub.close()
    _print_observe_dashboard(simulator.controller, hub, stats)
    if args.self_profile:
        _print_self_profile(profiler, stats, wall_s)
    # A smoke run always exports: the exports are what it validates.
    out = args.out or ("observe-out" if args.smoke else "")
    if out:
        written = hub.write_exports(out)
        for path in written.values():
            print(f"wrote {path}")
        if args.smoke:
            return _verdict(*_export_failures(written))
    return 0


def _service(args: argparse.Namespace, smoke: dict, default_mix):
    """``(args, config, tenants)`` of a ``serve`` / ``trace`` run: the
    ``--smoke`` preset laid over the flags, each flag whose dest (or its
    ``renamed`` name) is a :class:`ServiceConfig` field set on the config,
    and the ``--tenant`` specs or else ``default_mix(args)``."""
    import dataclasses

    from .service import ServiceConfig, TenantSpec

    args = _smoke(args, smoke)
    renamed = {"shards": "num_shards", "segments": "num_segments",
               "pages": "pages_per_segment", "queue": "queue_capacity",
               "cache": "cache_pages"}
    fields = {field.name for field in dataclasses.fields(ServiceConfig)}
    with _refusals():
        config = ServiceConfig(**{
            renamed.get(dest, dest): value
            for dest, value in vars(args).items()
            if renamed.get(dest, dest) in fields})
        config.validate()
        tenants = ([TenantSpec.parse(spec) for spec in args.tenant]
                   if args.tenant else default_mix(args))
    return args, config, tenants


def _serve_mix(args: argparse.Namespace):
    from .service import TenantSpec

    return [
        TenantSpec("zipf-hot", rate_tps=args.rate / 2, skew=args.skew,
                   write_fraction=0.3),
        # A TPC-A transaction expands to ~17 accesses, so its quarter of
        # the aggregate rate is divided down.
        TenantSpec("tpca", rate_tps=args.rate / 68, workload="tpca"),
        TenantSpec("limited", rate_tps=args.rate / 4, workload="uniform",
                   rate_limit_tps=args.rate / 8),
    ]


#: ``serve --smoke``: a small fixed mix whose metrics (every admission
#: rejection included) must repeat across reruns and ``--jobs``.  Rates
#: are accesses/s for zipf/uniform but transactions/s for tpca.
SERVE_SMOKE = dict(shards=2, segments=8, pages=32, duration=0.0003, tenant=[
    "name=zipf-hot,rate_tps=8e6,skew=1.0,write_fraction=0.3",
    "name=tpca,rate_tps=2e5,workload=tpca",
    "name=limited,rate_tps=6e6,workload=uniform,rate_limit_tps=2e6"])


def _print_service_dashboard(service, stats) -> None:
    rows = [
        ["Shards x pages", f"{stats.num_shards} x "
         f"{service.router.pages_per_shard:,} "
         f"({service.router.total_bytes >> 20} MiB service space)"],
        ["Offered / admitted", f"{stats.requests_offered:,} / "
         f"{stats.requests_admitted:,}"],
        ["Throttled (rate limit)", f"{stats.requests_throttled:,}"],
        ["Rejected (queue full)", f"{stats.requests_rejected_queue:,}"],
        ["Rejected (cleaner debt)", f"{stats.requests_rejected_shed:,}"],
        ["Served", f"{stats.accesses_served:,} in "
         f"{stats.simulated_ns / 1e6:.3f} ms simulated"],
        ["Service throughput",
         f"{stats.accesses_per_simulated_s:,.0f} accesses/s simulated"],
    ]
    cached = bool(stats.cache_hits or stats.cache_misses
                  or stats.cache_invalidations)
    if cached:
        rows.append(["Cache (DRAM tier)",
                     f"{stats.cache_hits:,} hits / "
                     f"{stats.cache_misses:,} misses "
                     f"({stats.cache_hit_rate:.1%}); "
                     f"{stats.cache_evictions:,} evicted, "
                     f"{stats.cache_invalidations:,} invalidated"])
    admission = getattr(service, "admission", None)
    if admission is not None:
        states = admission.report()["states"]
        busy = {name: state for name, state in states.items()
                if state != "normal"}
        rows.append(["Admission (closed loop)",
                     ", ".join(f"{name}:{state}"
                               for name, state in sorted(busy.items()))
                     or "all normal"])
    print(format_table(["Service", "Value"], rows))
    tenant_rows = []
    for name, tstats in stats.tenants.items():
        row = tstats.as_dict()
        entry = [
            name, f"{row['offered']:,}", f"{row['throttled']:,}",
            f"{row['rejected']:,}", f"{row['reads']:,}",
            f"{row['writes']:,}", f"{row['read_p99_ns']:,}",
            f"{row['write_p99_ns']:,}"]
        if cached:
            probes = tstats.cache_hits + tstats.cache_misses
            entry.append(f"{tstats.cache_hits / probes:.1%}"
                         if probes else "-")
        tenant_rows.append(entry)
    headers = ["Tenant", "Offered", "Throttled", "Rejected",
               "Reads", "Writes", "Read p99 (ns)", "Write p99 (ns)"]
    if cached:
        headers.append("Hit%")
    print()
    print(format_table(headers, tenant_rows))
    shard_rows = [[s["shard"], f"{s['accesses']:,}",
                   f"{s['batches']:,}", s["max_batch_pages"],
                   f"{s['coalesced_writes']:,}", f"{s['flushes']:,}",
                   f"{s['erases']:,}", f"{s['clock_ns'] / 1e6:.3f}"]
                  for s in stats.shards]
    print()
    print(format_table(["Shard", "Accesses", "Batches", "Max batch",
                        "Coalesced", "Flushes", "Erases", "Clock (ms)"],
                       shard_rows))


def _print_redundancy_dashboard(service, stats) -> None:
    info = service.health_report()["redundancy"]
    rows = [
        ["Policy / placement", f"{info['policy']} / {info['placement']}"],
        ["Write fanout", f"{info['write_fanout']}x"],
        ["Survivable bank losses", f"{info['survivable_bank_losses']}"],
        ["Degraded", "yes" if info["degraded"] else "no"],
        ["Degraded reads / writes",
         f"{stats.degraded_reads:,} / {stats.degraded_writes:,}"],
        ["Replica / rebuild accesses",
         f"{stats.replica_accesses:,} / {stats.rebuild_accesses:,}"],
        ["Remapped pages", f"{info['remapped_pages']:,}"],
    ]
    for bank in info["banks"]:
        state = bank["state"]
        rebuild = bank["rebuild"]
        if rebuild:
            state += (f" ({rebuild['pages_done']:,}/"
                      f"{rebuild['pages_total']:,} pages, "
                      f"{rebuild['progress'] * 100:.1f}%)")
        rows.append([f"Bank {bank['bank']}", state])
    print(format_table(["Redundancy", "Value"], rows))


def _print_security_dashboard(service, report) -> None:
    rows = [["Flagged", ", ".join(report["flagged"]) or "none"],
            ["Quarantined", ", ".join(sorted(service.quarantined)) or
             "none"]]
    for name, entry in report["tenants"].items():
        signals = entry["signals"]
        evidence = ", ".join(
            f"{key}={signals[key]}"
            for key in ("concentration_ratio", "flush_per_write",
                        "occupancy_fraction", "residency_z")
            if key in signals)
        flags = ",".join(entry["flags"]) or "-"
        rows.append([f"Tenant {name}", f"[{flags}] {evidence}"])
    print(format_table(["Security", "Value"], rows))


def _run_attack_demo(args, config, tenants) -> int:
    """``serve --attack KIND [--mitigate]``: wear-attack demo.

    Without ``--mitigate``: run the honest mix plus the attacker with
    wear attribution on, and show what the detector sees.  With it:
    the full baseline -> attack -> mitigated comparison from
    :func:`repro.service.adversary.run_attack_scenario`.
    """
    from .service import attack_tenant, project_lifetime, run_attack_scenario
    from .service.frontend import EnvyService

    attacker = attack_tenant(args.attack, config, rate_tps=args.rate / 2)
    duration = args.duration
    if args.mitigate:
        print(f"attack demo: {args.attack} attacker vs "
              f"{len(tenants)} honest tenants, three phases "
              f"(baseline / attack / mitigated), "
              f"{duration * 1e3:g} ms simulated each...")
        scenario = run_attack_scenario(config, tenants, attacker,
                                       duration, jobs=args.jobs)
        print(banner(f"wear attack: {args.attack}, mitigated"))
        rows = [["Attacker", f"{scenario['attacker']} "
                 f"({scenario['attack_workload']})"],
                ["Flagged (attack phase)",
                 ", ".join(scenario["attack"]["flagged"]) or "none"],
                ["Wear budget applied", str(scenario["wear_budget"])],
                ["Hot pages scattered",
                 str(scenario["hot_pages_scattered"])]]
        print(format_table(["Scenario", "Value"], rows))
        print()
        phase_rows = []
        for phase in ("baseline", "attack", "mitigated"):
            entry = scenario[phase]
            honest_p99 = max(
                (entry["tenants"][name]["write_p99_ns"]
                 for name in scenario["honest"]), default=0)
            phase_rows.append([
                phase, f"{entry['lifetime_days']:,}",
                f"{entry['wear_concentration']:.3f}",
                f"{entry['cleaning_cost']:.3f}",
                f"{honest_p99:,}",
                ", ".join(entry["flagged"]) or "none"])
        print(format_table(["Phase", "Lifetime (days)", "Wear conc",
                            "Clean cost", "Honest write p99 (ns)",
                            "Flagged"], phase_rows))
        return 0
    import dataclasses

    config = dataclasses.replace(config, attribute_wear=True)
    service = EnvyService(config, list(tenants) + [attacker])
    print(f"attack demo: {args.attack} attacker joins {len(tenants)} "
          f"honest tenants, wear attribution on, "
          f"{duration * 1e3:g} ms simulated (no mitigation — "
          f"add --mitigate)...")
    stats = service.run(duration, jobs=args.jobs)
    report = service.detect_attacks()
    life = project_lifetime(service)
    print(banner(f"wear attack: {args.attack}, unmitigated"))
    _print_service_dashboard(service, stats)
    print()
    _print_security_dashboard(service, report)
    print(f"\nprojected lifetime under attack: {life.days:,.1f} days "
          f"(wear concentration {life.concentration:.3f})")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """sharded multi-tenant eNVy storage service"""
    from .service import EnvyService

    if args.attack and args.smoke:
        _refuse("--attack is not available with --smoke")
    if args.mitigate and not args.attack:
        _refuse("--mitigate needs --attack KIND")
    if args.kill_bank is not None:
        if args.smoke or args.attack:
            _refuse(f"--kill-bank is not available with "
                    f"{'--smoke' if args.smoke else '--attack'}")
        if args.redundancy == "none":
            _refuse("--kill-bank needs --redundancy mirror|mirror:K|parity "
                    "(a plain service cannot survive a bank loss)")
        if not 0 <= args.kill_bank < args.shards:
            _refuse(f"--kill-bank {args.kill_bank} out of range "
                    f"for {args.shards} shards")
    args, config, tenants = _service(args, SERVE_SMOKE, _serve_mix)
    if args.attack:
        return _run_attack_demo(args, config, tenants)
    service = EnvyService(config, tenants)
    print(f"serving {len(tenants)} tenants over {config.num_shards} "
          f"shards for {args.duration * 1e3:g} ms simulated "
          f"(seed {config.seed})...")
    stats = service.run(args.duration, jobs=args.jobs)
    print(banner(f"eNVy service: {config.num_shards} shards, "
                 f"{len(tenants)} tenants"))
    _print_service_dashboard(service, stats)
    if not args.smoke:
        if args.redundancy != "none" or args.placement != "striped":
            print()
            _print_redundancy_dashboard(service, stats)
        if args.kill_bank is not None:
            bank = args.kill_bank
            print()
            print(banner(f"bank {bank} lost: serving degraded"))
            service.kill_bank(bank)
            degraded = service.run(args.duration, jobs=args.jobs)
            _print_service_dashboard(service, degraded)
            print()
            _print_redundancy_dashboard(service, degraded)
            print()
            print(banner(f"bank {bank} replaced: rebuilding online"))
            scheduler = service.replace_bank(bank)
            rebuilt = service.run(args.duration, jobs=args.jobs)
            _print_service_dashboard(service, rebuilt)
            if scheduler.done:
                scheduler.finish(verify=True)
                print(f"\nrebuild of bank {bank} complete: "
                      f"{scheduler.total:,} pages verified, bank healthy")
            else:
                print(f"\nrebuild of bank {bank} still running: "
                      f"{scheduler.position:,}/{scheduler.total:,} pages "
                      f"({scheduler.progress:.0%}) — longer --duration "
                      f"finishes it")
            print()
            _print_redundancy_dashboard(service, rebuilt)
        return 0
    health = service.health_report()
    failures = [f"health_report missing {key}"
                for key in ("requests_rejected", "requests_throttled",
                            "requests_rejected_queue",
                            "requests_rejected_shed")
                if key not in health]
    if health.get("requests_throttled", 0) <= 0:
        failures.append("expected the rate-limited tenant to be throttled")
    failures += _reruns(lambda jobs: EnvyService(config, tenants).run(
        args.duration, jobs=jobs).as_dict(), stats.as_dict(), "metrics")
    print()
    return _verdict(failures, "smoke ok: metrics identical across reruns "
                    f"and --jobs 1/2; {health.get('requests_rejected', 0):,}"
                    " rejections reproduced.")


def _trace_mix(args: argparse.Namespace):
    """A latency-sensitive ``online`` tenant with read/write p99 SLOs, a
    write-heavy ``batch`` tenant with a write SLO, and a ``storm`` tenant
    running the ``clean_amp`` sweep at full write fraction: the induced
    cleaner storm whose interference the trace attributes (cleaner-debt
    throttles, sheds, queueing behind the storm's writes)."""
    from .service import TenantSpec

    rate = args.rate
    return [
        TenantSpec("online", rate_tps=rate / 2, skew=1.0, write_fraction=0.3,
                   slo_read_p99_ns=100_000, slo_write_p99_ns=250_000,
                   slo_throughput_tps=rate / 20),
        TenantSpec("batch", rate_tps=rate / 4, workload="uniform",
                   write_fraction=0.8, slo_write_p99_ns=500_000),
        TenantSpec("storm", rate_tps=rate / 2, workload="clean_amp",
                   write_fraction=1.0),
    ]


#: ``trace --smoke``: the default mix, small, whose decomposition must be
#: exact, whose trace must repeat across reruns and ``--jobs``, and whose
#: metrics must not move with tracing off.
TRACE_SMOKE = dict(shards=2, segments=8, pages=32, queue=32, retry_limit=2,
                   rate=4e6, duration=0.0004, tenant=None)


def _print_trace_dashboard(report, slo, slowest, percentile) -> None:
    from .obs.trace import COMPONENTS

    short = {"queue": "queue", "redundancy": "redun",
             "retry_wait": "retry", "throttle": "thrtl",
             "flush_stall": "flush", "clean_stall": "clean",
             "fault_retry": "fault", "service": "srvc"}
    rows = []
    for row in report.slowest(slowest):
        comp = row["components"]
        parts = " ".join(f"{short[c]}={comp[c]:,}"
                         for c in COMPONENTS if comp[c])
        rows.append([row["rid"], row["tenant"], row["op"],
                     row["shard"], f"{row['latency_ns']:,}",
                     row["attempts"], parts])
    print(format_table(["Rid", "Tenant", "Op", "Shard", "Latency (ns)",
                        "Att", "Critical path (ns)"], rows))
    print()
    blame = report.blame(percentile)
    blame_rows = []
    for tenant, entry in blame.items():
        shares = entry["shares"]
        top = " ".join(f"{short[c]}={shares[c]:.1%}"
                       for c in COMPONENTS if shares[c] >= 0.001)
        blame_rows.append([tenant, f"{entry['requests']:,}",
                           f"{entry['tail_requests']:,}",
                           f"{entry['threshold_ns']:,}", top])
    print(format_table([f"Tenant (p{percentile:g} tail)", "Requests",
                        "Tail", "Threshold (ns)", "Blame shares"],
                       blame_rows))
    if slo:
        print()
        slo_rows = []
        for tenant, entry in slo.items():
            bounds = []
            for op in ("read", "write"):
                if op in entry:
                    bounds.append(f"{op} p99<={entry[op]['bound_p99_ns']:,}"
                                  f" ({entry[op]['violations']} viol)")
            burn = entry["burn"]
            slo_rows.append([
                tenant, f"{entry['target']:.0%}",
                "; ".join(bounds) or "-",
                f"{burn['last']:.2f}/{burn['recent']:.2f}/"
                f"{burn['lifetime']:.2f}",
                "yes" if entry["met"] else "NO"])
        print(format_table(["Tenant SLO", "Target", "Latency objectives",
                            "Burn last/recent/life", "Met"], slo_rows))


def cmd_trace(args: argparse.Namespace) -> int:
    """request-level tracing: slowest requests with exact critical paths,
    per-tenant tail blame, SLO burn rates"""
    import json
    import os

    from .obs.export import service_prometheus_text
    from .service import EnvyService

    args, config, tenants = _service(args, TRACE_SMOKE, _trace_mix)
    service = EnvyService(config, tenants)
    print(f"tracing {len(tenants)} tenants over {config.num_shards} "
          f"shards for {args.duration * 1e3:g} ms simulated "
          f"(seed {config.seed})...")
    stats = service.run(args.duration, jobs=args.jobs, trace=True)
    report = service.last_trace
    health = service.health_report()
    slo = health.get("slo", {})
    print(banner(f"request trace: {len(report.rows):,} rows, "
                 f"{len(report.served()):,} served foreground"))
    _print_trace_dashboard(report, slo, args.slowest, args.percentile)
    err = report.validate()
    served = len(report.served(include_pseudo=True))
    print(f"\ndecomposition: worst |sum(components) - latency| = "
          f"{err} ns over {served:,} served rows")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        written = {
            "trace.json": report.chrome_trace(),
            "trace.jsonl": report.to_jsonl(),
            "service.prom": service_prometheus_text(
                stats, security=health.get("security"), slo=slo),
            "slo.json": json.dumps(
                {"slo": slo, "blame": report.blame(args.percentile)},
                indent=2, sort_keys=True) + "\n",
        }
        for name, text in written.items():
            path = os.path.join(args.out, name)
            with open(path, "w") as handle:
                handle.write(text)
            print(f"wrote {path}")
    if not args.smoke:
        return err and 1 or 0
    failures = [f"decomposition error {err} ns (expected 0)"] if err else []
    if not slo:
        failures.append("health_report has no slo section")
    failures += [f"slo section missing tenant {name}"
                 for name in ("online", "batch") if name not in slo]

    def traced(jobs):
        rerun = EnvyService(config, tenants)
        rerun.run(args.duration, jobs=jobs, trace=True)
        return rerun.last_trace.as_dict()

    failures += _reruns(traced, report.as_dict(), "trace")
    untraced = EnvyService(config, tenants).run(args.duration, jobs=1)
    if untraced.as_dict() != stats.as_dict():
        failures.append("tracing perturbed the service metrics")
    print()
    return _verdict(failures, f"smoke ok: 0 ns decomposition error on "
                    f"{served:,} rows; blame identical across reruns and "
                    f"--jobs 1/2; metrics bit-identical with tracing off.")


def _backends_config(args: argparse.Namespace):
    from .backends import default_config

    with _refusals():
        return default_config(num_segments=args.segments,
                              pages_per_segment=args.pages,
                              reserve_segments=args.reserves)


def _print_consistency_report(report) -> None:
    rows = []
    for spec, entry in report["backends"].items():
        digest = entry["digest"][:16]
        if entry["reopen_digest"]:
            digest += (" (reopen ok)"
                       if entry["reopen_digest"] == entry["digest"]
                       else " (REOPEN DIVERGED)")
        rows.append([entry["backend_name"], spec, digest,
                     f"{entry['total_ns']:,}",
                     "ok" if entry["match"] else "MISMATCH"])
    print(format_table(["Backend", "Spec", "State digest",
                        "Simulated ns", "Match"], rows))
    reference = report["reference_digest"]
    print(f"\nreference digest : {reference or '(per-trace)'}")
    print(f"distinct digests : {report['distinct_digests']} over "
          f"{report['ops']:,} host ops ({report['writes']:,} writes, "
          f"{report['reads']:,} reads)")
    print("consistent       : "
          + ("yes — placement is backend-independent"
             if report["consistent"] else "NO"))


def cmd_backends(args: argparse.Namespace) -> int:
    """list pluggable storage backends / workloads; --check runs the
    cross-backend consistency matrix"""
    from . import backends

    config = _backends_config(args)
    print(banner("pluggable storage backends"))
    rows = [[info.name, info.summary, info.options or "-"]
            for info in (backends.backend_info(name)
                         for name in backends.backend_names())]
    print(format_table(["Backend", "Summary", "Options"], rows))
    print()
    print(banner("workload generators"))
    rows = [[info.name, info.summary, info.options or "-"]
            for info in (backends.workload_info(name)
                         for name in backends.workload_names())]
    print(format_table(["Workload", "Summary", "Options"], rows))
    print("\nspec grammar: name[:key=value,...] — e.g. "
          "'file:path=/tmp/envy.img' or 'zipf:skew=1.2'; "
          "EnvyConfig(backend=SPEC) or --backend SPEC selects one.")
    if args.record:
        trace, reference = backends.record_tpca(
            config, transactions=args.transactions, seed=args.seed)
        trace.save(args.record)
        print(f"\nrecorded {len(trace)} host ops "
              f"({trace.writes} writes) from {args.transactions} TPC-A "
              f"transactions (seed {args.seed}) to {args.record}")
        print(f"reference state digest: {reference.digest}")
    if not args.check:
        return 0
    print()
    print(banner(f"cross-backend consistency "
                 f"({args.transactions} TPC-A transactions, "
                 f"seed {args.seed})"))
    report = backends.run_consistency(config=config,
                                      transactions=args.transactions,
                                      seed=args.seed)
    _print_consistency_report(report)
    return 0 if report["consistent"] else 1


def cmd_replay(args: argparse.Namespace) -> int:
    """re-drive a recorded run trace against any backend"""
    from dataclasses import replace

    from .backends import RunTrace, replay_trace, run_consistency
    from .core.tracing import TraceError

    try:
        trace = RunTrace.load(args.trace)
    except (OSError, TraceError) as exc:
        print(f"cannot load {args.trace}: {exc}", file=sys.stderr)
        return 2
    config = _backends_config(args)
    print(f"loaded {len(trace)} host ops ({trace.writes:,} writes, "
          f"{trace.reads:,} reads; {trace.page_bytes}-byte pages, "
          f"recorded under config "
          f"{trace.config_digest or 'unknown'})")
    if args.matrix:
        print(banner("replaying across the backend matrix"))
        report = run_consistency(config=config, trace=trace,
                                 seed=args.seed)
        _print_consistency_report(report)
        return 0 if report["consistent"] else 1
    try:
        result = replay_trace(trace, replace(config,
                                             backend=args.backend),
                              check_config=not args.no_check,
                              keep_controller=True)
    except TraceError as exc:
        print(f"refusing to replay: {exc}", file=sys.stderr)
        return 2
    print(banner(f"replay on backend {args.backend!r}"))
    rows = [
        ["State digest", result.digest],
        ["Simulated cost", f"{result.total_ns:,} ns for "
         f"{result.ops:,} host ops"],
    ]
    health = result.health
    for key in ("flushes", "erases", "clean_copies", "retired_segments"):
        if key in health:
            rows.append([key, str(health[key])])
    for key, value in sorted(health.items()):
        if key.startswith("backend"):
            rows.append([key, str(value)])
    print(format_table(["Replay result", "Value"], rows))
    if args.expect_digest:
        if result.digest != args.expect_digest:
            print(f"\nDIGEST MISMATCH: expected {args.expect_digest}",
                  file=sys.stderr)
            return 1
        print("\ndigest matches --expect-digest.")
    return 0


# Flag groups: each builds a fresh parser for ``parents=`` (argparse
# shares the parent's actions with the child, so a ``set_defaults`` on one
# command must not reach another's).

def _fault_flags(*plans: str) -> argparse.ArgumentParser:
    """``faults`` / ``recover``: a ``--plan`` of ``plans`` (the first by
    default), its seed and the geometry."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--plan", choices=list(plans), default=plans[0],
                       help="fault-plan preset")
    flags.add_argument("--seed", type=int,
                       help="workload/fault seed (deterministic)")
    flags.add_argument("--segments", type=int)
    flags.add_argument("--pages", type=int)
    return flags


def _service_flags() -> argparse.ArgumentParser:
    """``serve`` / ``trace``: the service geometry, tenants and run."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--shards", type=int, default=4,
                       help="independent eNVy banks (default: %(default)s)")
    flags.add_argument("--segments", type=int, default=16,
                       help="flash segments per shard")
    flags.add_argument("--pages", type=int, default=64,
                       help="pages per segment")
    flags.add_argument("--duration", type=float, default=0.002,
                       help="simulated seconds of tenant traffic")
    flags.add_argument("--rate", type=float, default=4e6,
                       help="aggregate offered accesses/s for the "
                            "default tenant mix")
    flags.add_argument("--queue", type=int, default=256,
                       help="per-shard bounded queue capacity "
                            "(default: %(default)s)")
    flags.add_argument("--redundancy", default="none",
                       help="cross-bank redundancy policy: none, mirror, "
                            "mirror:K, or parity (default: %(default)s)")
    flags.add_argument("--retry-limit", type=int, default=0,
                       dest="retry_limit",
                       help="bounded deterministic retries for queue-full "
                            "rejections (default: %(default)s)")
    flags.add_argument("--tenant", action="append", metavar="SPEC",
                       help="tenant spec 'name=a,workload=zipf,"
                            "rate_tps=1e6,...' (repeatable; replaces "
                            "the default mix; slo=READ[:WRITE[:TGT]] or "
                            "slo_read_p99_ns=... declares objectives, "
                            "cache=true|false, arrive_s=/depart_s=/"
                            "burst_every_s= for churn)")
    flags.add_argument("--seed", type=int, default=0,
                       help="service seed (schedule + shard prewarm)")
    flags.add_argument("--jobs", type=int, default=None,
                       help="shard fan-out workers (default: ENVY_JOBS "
                            "or CPU count); never changes results")
    flags.add_argument("--smoke", action="store_true",
                       help="small preset geometry, mix and duration + "
                            "determinism validation (CI)")
    return flags


def _geometry_flags() -> argparse.ArgumentParser:
    """``backends`` / ``replay``: the config ``_backends_config`` builds."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--seed", type=int, default=0)
    flags.add_argument("--segments", type=int, default=12,
                       help="logical segments (default: %(default)s)")
    flags.add_argument("--pages", type=int, default=16,
                       help="pages per segment")
    flags.add_argument("--reserves", type=int, default=2,
                       help="bad-block reserve segments")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="eNVy (ASPLOS 1994) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, *parents, **defaults):
        """The subcommand ``func`` runs: named after it without ``cmd_``,
        helped by its docstring, with per-command flag ``defaults``."""
        child = sub.add_parser(func.__name__[4:], help=func.__doc__,
                               parents=list(parents))
        child.set_defaults(func=func, **defaults)
        return child

    command(cmd_info)
    command(cmd_demo)
    command(cmd_claims)

    policies = command(cmd_policies)
    policies.add_argument("localities", nargs="*",
                          help="locality labels like 10/90")
    policies.add_argument("--segments", type=int, default=64)
    policies.add_argument("--pages", type=int, default=128)
    policies.add_argument("--partition", type=int, default=8)
    policies.add_argument("--jobs", type=int, default=None,
                          help="parallel sweep workers (default: "
                               "ENVY_JOBS or CPU count)")

    tpca = command(cmd_tpca)
    tpca.add_argument("rate", type=float, help="request rate in TPS")
    tpca.add_argument("--duration", type=float, default=0.15,
                      help="simulated seconds to measure")
    tpca.add_argument("--utilization", type=float, default=0.8)

    lifetime = command(cmd_lifetime)
    lifetime.add_argument("--flush-rate", type=float, default=10_376,
                          help="pages flushed per second")
    lifetime.add_argument("--cost", type=float, default=1.97,
                          help="cleaning cost")

    faults = command(cmd_faults, _fault_flags("light", "harsh"),
                     seed=42, segments=16, pages=32)
    faults.add_argument("--writes", type=int, default=5000,
                        help="page writes to issue")
    faults.add_argument("--reserves", type=int, default=4,
                        help="bad-block reserve segments")

    recover = command(cmd_recover, _fault_flags("none", "light", "harsh"),
                      seed=0, segments=12, pages=16)
    recover.add_argument("--transactions", type=int, default=20,
                         help="TPC-A transactions to replay")
    recover.add_argument("--kill-at", type=int, default=0,
                         help="flash op to die at (0 = midpoint)")
    recover.add_argument("--tear", action="store_true",
                         help="tear the in-flight program (bad CRC)")
    recover.add_argument("--checkpoint", type=int, default=8,
                         help="checkpoint every N flushes (0 = off)")

    observe = command(cmd_observe)
    observe.add_argument("--rate", type=float, default=30_000.0,
                         help="request rate in TPS")
    observe.add_argument("--duration", type=float, default=0.1,
                         help="simulated seconds to observe")
    observe.add_argument("--utilization", type=float, default=0.8)
    observe.add_argument("--policy", choices=["fifo", "greedy", "locality",
                                              "hybrid"], default="hybrid")
    observe.add_argument("--seed", type=int, default=7)
    observe.add_argument("--segments", type=int, default=128)
    observe.add_argument("--pages", type=int, default=1024)
    observe.add_argument("--window-us", type=int, default=1000,
                         dest="window_us",
                         help="time-series window in microseconds")
    observe.add_argument("--out", default="observe-out",
                         help="export directory ('' = no exports)")
    observe.add_argument("--smoke", action="store_true",
                         help="small fixed run + export validation (CI)")
    observe.add_argument("--self-profile", action="store_true",
                         dest="self_profile",
                         help="profile the host cost of simulated time")

    serve = command(cmd_serve, _service_flags())
    serve.add_argument("--utilization", type=float, default=0.8)
    serve.add_argument("--policy", choices=["fifo", "greedy", "locality",
                                            "hybrid"], default="hybrid")
    serve.add_argument("--skew", type=float, default=1.0,
                       help="zipf skew of the hot default tenant")
    serve.add_argument("--placement", choices=["striped", "ranged"],
                       default="striped",
                       help="logical page placement across banks")
    serve.add_argument("--kill-bank", type=int, default=None,
                       dest="kill_bank", metavar="BANK",
                       help="availability demo: lose this whole bank after "
                            "the healthy run, serve degraded, then rebuild "
                            "online (needs --redundancy)")
    serve.add_argument("--cache", type=int, default=0, metavar="PAGES",
                       help="DRAM read-cache pages per shard "
                            "(0 = no cache tier)")
    serve.add_argument("--cache-tenant-cap", type=float, default=1.0,
                       dest="cache_tenant_cap", metavar="FRAC",
                       help="per-tenant cache occupancy cap as a "
                            "fraction of one shard's cache "
                            "(default: %(default)s = uncapped)")
    serve.add_argument("--admission", action="store_true",
                       help="closed-loop admission: promote / throttle "
                            "/ shed tenants from their SLO burn "
                            "between runs")
    serve.add_argument("--attack",
                       choices=["targeted-wear", "clean-amp", "squat"],
                       default=None,
                       help="wear-attack demo: add this adversarial "
                            "tenant at half the aggregate rate, turn "
                            "on per-tenant wear attribution and show "
                            "the detector's verdict")
    serve.add_argument("--mitigate", action="store_true",
                       help="with --attack: run the full baseline/"
                            "attack/mitigated comparison (quarantine + "
                            "wear budget + hot-page scatter)")

    trace = command(cmd_trace, _service_flags(), queue=64, retry_limit=2)
    trace.add_argument("--slowest", type=int, default=10,
                       help="list this many slowest requests "
                            "(default: %(default)s)")
    trace.add_argument("--percentile", type=float, default=99.0,
                       help="tail percentile for the blame table")
    trace.add_argument("--out", default=None, metavar="DIR",
                       help="write trace.json (Perfetto), trace.jsonl, "
                            "service.prom and slo.json here")

    backends = command(cmd_backends, _geometry_flags())
    backends.add_argument("--check", action="store_true",
                          help="record one TPC-A trace and prove every "
                               "backend produces the same state digest")
    backends.add_argument("--record", metavar="TRACE.jsonl",
                          help="save the reference run trace to this "
                               "JSONL file (for 'replay')")
    backends.add_argument("--transactions", type=int, default=40,
                          help="TPC-A transactions to record "
                               "(default: %(default)s)")

    replay = command(cmd_replay, _geometry_flags())
    replay.add_argument("trace", help="run-trace JSONL (from "
                                      "'backends --record')")
    replay.add_argument("--backend", default="flash",
                        help="backend spec name[:key=value,...] "
                             "(default: %(default)s)")
    replay.add_argument("--matrix", action="store_true",
                        help="replay on every registered backend and "
                             "compare digests")
    replay.add_argument("--expect-digest", dest="expect_digest",
                        metavar="SHA256",
                        help="fail unless the replay lands on this "
                             "state digest")
    replay.add_argument("--no-check", action="store_true",
                        dest="no_check",
                        help="skip the trace-header config validation")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
