"""Which ``src/repro`` functions do the supported workloads actually run?

Usage (from the repository root)::

    ENVY_JOBS=1 PYTHONPATH=src python tests/reachability.py [--roots quick|full]

A *root* is something this repository stands behind: ``python -m repro
claims``, every CLI command at its CI/smoke arguments (plus the
unmitigated ``serve --attack`` demo), the six
``benchmarks/e2e`` workloads at scale 0.05 (traced and untraced, as
``run.py`` runs them), CI's inline chaos and redundancy steps, the
``examples/*.py`` README sends users to (but the slow
``throughput_experiment.py``) and, with ``--roots full``, that example
and every ``benchmarks/bench_*.py`` (EXPERIMENTS.md reports from them;
CI runs two).  A root that raises fails the run.  Each root runs in
this process under ``sys.setprofile``, ``run_sweep``'s worker pool
included (it maps in-process here); a function counts as reached when
its code object is entered at least once.

The report lists every function defined under ``src/repro`` that no
root entered, then a per-module summary.  The run fails when an
unreached *public* function (no underscore on it or on its class) is
not covered by :data:`EXEMPT`, when an ``EXEMPT`` entry names nothing
unreached, and — with ``--roots full`` — when a bench-reason entry is
not reached by the bench it names.  Private helpers and abstract stubs
are printed but never fail the run: a private helper that nothing
reaches goes with the public function it serves.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable, Dict, List, Set, Tuple
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
E2E = os.path.join(ROOT, "benchmarks", "e2e")
for path in (SRC, E2E):
    if path not in sys.path:
        sys.path.insert(0, path)

#: Why an unreached public function stays.  Keys are a module
#: (``repro.core.persistence``), a class (``module:Class``) or one
#: function (``module:Class.method``); values are ``(reason, evidence)``
#: with ``reason`` one of :data:`REASONS`.
EXEMPT: Dict[str, Tuple[str, str]] = {
    # Pinned by a claim or a fidelity.json key.
    "repro.service.frontend:EnvyService.rebalance":
        ("claim", "redundancy/rebalance"),
    "repro.service.redundancy:plan_rebalance":
        ("claim", "redundancy/rebalance"),
    "repro.service.redundancy:RebuildScheduler.progress":
        ("claim", "redundancy/rebuild"),
    "repro.obs.timeseries:TimeSeriesSampler.as_dicts":
        ("claim", "hub_windows/tpca_20k"),
    "repro.flash.array:WearStats.total_erases":
        ("claim", "perf/tpca_prewarmed"),
    "repro.flash.array:WearStats.total_programs":
        ("claim", "perf/tpca_prewarmed"),
    # Tests compare the stack against it.
    "repro.db.layout:BTreeGeometry.search_path":
        ("reference", "test_btree: the real traversal visits its nodes"),
    "repro.core.tracing:RunTrace.total_ns":
        ("reference", "test_tracing: recorded time equals busy_ns"),
    "repro.faults.plan:FaultInjector.schedule_digest":
        ("reference", "test_faults: one schedule per seed, across runs"),
    # Loads outside input; the hostile-input tests reach it.
    "repro.core.persistence":
        ("loader", "snapshot files: test_persistence.TestSnapshotErrors"),
    "repro.obs.hist:LatencyHistogram.from_state":
        ("loader", "test_observability.TestHostileHistogramState"),
    "repro.core.tracing:RunTrace.roundtrip":
        ("loader", "trace files: test_tracing.TestHostileTraceFiles"),
    # ROADMAP item 1: the backend trace-replay wall path (record a
    # registered workload, replay it as a workload).
    "repro.backends.trace:record_workload": ("roadmap", "item 1"),
    "repro.backends.registry:create_workload": ("roadmap", "item 1"),
    "repro.workloads.trace": ("roadmap", "item 1"),
    "repro.core.tracing:RunTrace.page_writes": ("roadmap", "item 1"),
    "repro.workloads.base:WriteWorkload.next_pages": ("roadmap", "item 1"),
    "repro.workloads.sequential:StridedWorkload.next_page":
        ("roadmap", "item 1"),
    # ROADMAP item 4(a): one state machine across backend x redundancy
    # x cache x kill x recover / reopen / rebuild.
    "repro.backends.filestore:FileBackend.close": ("roadmap", "item 4(a)"),
    "repro.backends.onfi:OnfiBackend.read_oob": ("roadmap", "item 4(a)"),
    "repro.backends.ramdisk:RamImage.read": ("roadmap", "item 4(a)"),
    "repro.backends.ramdisk:RamdiskBackend.image_page":
        ("roadmap", "item 4(a)"),
    # Reached by the bench that reports it (checked by --roots full).
    "repro.analysis.alternatives": ("bench", "bench_intro_motivation.py"),
    "repro.analysis.replication": ("bench", "bench_replication.py"),
    "repro.cleaning.simulator:SimulationResult.buffer_hit_rate":
        ("bench", "bench_ablations.py"),
    "repro.cleaning.simulator:SimulationResult.write_amplification":
        ("bench", "bench_sec43_wear.py"),
    "repro.core.costmodel": ("bench", "bench_fig01_technology.py"),
    "repro.core.prototype": ("bench", "bench_sec8_prototype.py"),
    "repro.db.tpca_db": ("bench", "bench_faults.py"),
    "repro.ext.parallel:ParallelFlushScheduler.mean_batch_size":
        ("bench", "bench_sec6_extensions.py"),
    "repro.faults.badblocks:BadBlockTable.retire":
        ("bench", "bench_faults.py"),
    "repro.faults.plan:FaultPlan": ("bench", "bench_faults.py"),
    "repro.flash.array:FlashArray.emit_fault": ("bench", "bench_faults.py"),
    "repro.flash.endurance": ("bench", "bench_sec2_endurance.py"),
    "repro.perf.points:tpca_point": ("bench", "bench_fig13_throughput.py"),
    "repro.ramdisk.blockdev:BlockDevice.size_bytes":
        ("bench", "bench_sec1_interface.py"),
    "repro.sim.analytic:CapacityModel": ("bench", "bench_analytic_model.py"),
    "repro.sim.engine:simulate_tpca": ("bench", "bench_sec53_breakdown.py"),
    "repro.workloads.sequential:SequentialWorkload.next_page":
        ("bench", "bench_ext_workloads.py"),
    # One-line views that tests read the stack's state through; a test
    # that reached past them would couple to private fields instead.
    "repro.cleaning.store:Position.dead_slots":
        ("observer", "test_recovery: the dirtiest victim"),
    "repro.cleaning.store:SegmentStore.position_of":
        ("observer", "test_policies, test_properties: drained pages"),
    "repro.cleaning.store:SegmentStore.is_live_slot":
        ("observer", "test_segment_store.MirrorStore"),
    "repro.cleaning.store:SegmentStore.cleaning_cost":
        ("observer", "test_segment_store.TestMetricsAndInvariants"),
    "repro.cleaning.store:SegmentStore.live_pages":
        ("observer", "test_perf_suite, test_properties: running total"),
    "repro.flash.array:FlashArray.fault_injector":
        ("observer", "test_faults.TestZeroPlanParity"),
    "repro.flash.segment:FlashSegment.free_pages":
        ("observer", "test_flash_segment, test_hooks"),
    "repro.flash.segment:FlashSegment.invalid_pages":
        ("observer", "test_flash_segment.TestStates"),
    "repro.obs.hist:LatencyHistogram.buckets":
        ("observer", "test_observability: fold-on-read equality"),
    "repro.obs.events:EventBus.subscriber_count":
        ("observer", "test_service_executor: hooks removed"),
    "repro.obs.slo:SLOTracker.tracked_tenants":
        ("observer", "test_trace_slo.TestSLOTracker"),
    "repro.service.admission:AdmissionController.state":
        ("observer", "test_cache_admission.TestAdmission"),
    "repro.service.cache:PageCache.owner_occupancy":
        ("observer", "test_cache_admission: per-owner caps"),
    "repro.ext.transactions:Transaction.pages_shadowed":
        ("observer", "test_extensions.TestTransactions"),
}

REASONS = {
    "claim": "a CLAIMS entry or a tests/data/fidelity.json key pins it",
    "reference": "tests compare against it as a reference model",
    "loader": "it loads outside input; its hostile-input tests reach it",
    "roadmap": "a ROADMAP item will reach it",
    "bench": "a reported bench reaches it (checked by --roots full)",
    "observer": "tests read the stack's state through it (an accessor)",
}


# ---------------------------------------------------------------------
# The functions under src/repro
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class Function:
    module: str
    qualname: str
    path: str
    first_line: int
    lines: int
    public: bool
    stub: bool

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def _is_stub(body: List[ast.stmt]) -> bool:
    """A body that is only a docstring, ``...``, ``pass`` or a bare
    ``raise NotImplementedError``: an interface, not code."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value,
                                                     ast.Constant):
            continue
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) \
                else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def source_functions() -> List[Function]:
    functions = []
    for directory, _, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            module = module[:-len(".__init__")] \
                if module.endswith(".__init__") else module
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            _collect(tree, module, path, [], True, functions)
    return functions


def _collect(node: ast.AST, module: str, path: str, scope: List[str],
             public: bool, out: List[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _collect(child, module, path, scope + [child.name],
                     public and not child.name.startswith("_"), out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno
                                          for d in child.decorator_list])
            qualname = ".".join(scope + [child.name])
            out.append(Function(
                module, qualname, path, first,
                child.end_lineno - first + 1,
                public and not child.name.startswith("_"),
                _is_stub(child.body)))
            # Nested functions are never public: they go with their owner.
            _collect(child, module, path, scope + [child.name, "<locals>"],
                     False, out)
        else:
            _collect(child, module, path, scope, public, out)


# ---------------------------------------------------------------------
# The profiler
# ---------------------------------------------------------------------

class _InlinePool:
    """``multiprocessing`` pool stand-in that maps in this process:
    ``run_sweep`` returns the same list for any worker count, and here
    its ``"module:function"`` workers are profiled with everything else."""

    def __init__(self, processes: int) -> None:
        pass

    def __enter__(self) -> "_InlinePool":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def map(self, fn, tasks):
        return [fn(task) for task in tasks]


class Probe:
    """Records the code objects under src/repro entered per root."""

    def __init__(self) -> None:
        self.by_root: Dict[str, Set[Tuple[str, int]]] = {}
        self._codes: Set = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self._codes.add(frame.f_code)

    @contextlib.contextmanager
    def root(self, name: str):
        self._codes = codes = set()
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            self.by_root[name] = {(code.co_filename, code.co_firstlineno)
                                  for code in codes
                                  if code.co_filename.startswith(PACKAGE)}


# ---------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------

def _cli(*argv: str) -> None:
    from repro.__main__ import main

    with contextlib.redirect_stdout(io.StringIO()):
        status = main(list(argv))
    if status != 0:
        raise SystemExit(f"repro {' '.join(argv)} exited {status}")


def _e2e(name: str, out_dir: str) -> None:
    from unit import run_unit

    with contextlib.redirect_stdout(io.StringIO()):
        report = run_unit(name, 7, 0.05, True, time.perf_counter(),
                          out_dir)
    if report["failures"]:
        raise SystemExit(f"e2e {name}: {report['failures']}")


def _ci_kill_point_sweeps() -> None:
    """CI's "Torn kill-point sweeps of all three drills" step."""
    from repro.core import EnvyConfig
    from repro.core.chaos import run_chaos, sweep_kill_points
    from repro.service import (ServiceConfig, run_redundancy_chaos,
                               run_service_chaos)

    core = EnvyConfig.small(num_segments=10, pages_per_segment=16,
                            checkpoint_interval_flushes=6)
    shards = ServiceConfig(num_shards=2, num_segments=4,
                           pages_per_segment=16, seed=3)
    sweeps = [(partial(run_chaos, core, 6, tear=True), 4, False),
              (partial(run_service_chaos, shards, duration_s=0.002,
                       tear=True), 9, False)]
    for policy in ("mirror", "parity"):
        config = ServiceConfig(num_shards=3, num_segments=4,
                               pages_per_segment=16, redundancy=policy,
                               seed=5)
        sweeps.append((partial(run_redundancy_chaos, config,
                               duration_s=0.0002, tear=True), 40, True))
    for run, stride, clean_loss in sweeps:
        reports = sweep_kill_points(run, stride, clean_loss=clean_loss)
        assert reports and all(r.ok for r in reports)


def _ci_windowed_expander() -> None:
    """CI's "Windowed expander" step: jobs 1 and 2 agree."""
    from repro.service import EnvyService, ServiceConfig, TenantSpec

    tenants = [TenantSpec("mixed", rate_tps=1.2e7, write_fraction=0.3)]
    for policy, killed in (("parity", None), ("mirror", 1)):
        config = ServiceConfig(num_shards=3, num_segments=8,
                               pages_per_segment=32, redundancy=policy,
                               attribute_wear=True, seed=5)
        runs = []
        for jobs in (1, 2):
            service = EnvyService(config, tenants)
            if killed is not None:
                service.kill_bank(killed)
            runs.append(service.run(0.002, jobs=jobs).as_dict())
        assert runs[0] == runs[1] and runs[0]["replica_accesses"]


def _example(name: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(os.path.join(ROOT, "examples", name),
                       run_name="__main__")


#: Examples only ``--roots full`` runs: this one sweeps the timed
#: simulator for ≈25 s.
SLOW_EXAMPLES = ("throughput_experiment.py",)


def examples() -> List[str]:
    """Every ``examples/*.py``: README's examples table sends users there."""
    return sorted(name for name in os.listdir(os.path.join(ROOT, "examples"))
                  if name.endswith(".py"))


E2E_WORKLOADS = ("store_hybrid", "tpca_timed", "svc_zipf_rw",
                 "svc_read_cached", "svc_parity_rw", "svc_fleet_1k")


def quick_roots(scratch: str) -> Dict[str, Callable[[], None]]:
    trace_file = os.path.join(scratch, "backend-trace.jsonl")
    roots: Dict[str, Callable[[], None]] = {
        "claims": partial(_cli, "claims"),
        "info": partial(_cli, "info"),
        "demo": partial(_cli, "demo"),
        "policies": partial(_cli, "policies", "50/50", "--segments", "16",
                            "--pages", "32", "--partition", "4"),
        "tpca": partial(_cli, "tpca", "3000", "--duration", "0.02"),
        "lifetime": partial(_cli, "lifetime"),
        "faults": partial(_cli, "faults", "--plan", "light", "--writes",
                          "2000"),
        "recover": partial(_cli, "recover", "--transactions", "10"),
        "recover --tear": partial(_cli, "recover", "--transactions", "10",
                                  "--plan", "light", "--tear", "--seed",
                                  "2"),
        "observe": partial(_cli, "observe", "--smoke", "--out",
                           os.path.join(scratch, "observe-out")),
        "trace": partial(_cli, "trace", "--smoke", "--out",
                         os.path.join(scratch, "trace-out")),
        "serve --smoke": partial(_cli, "serve", "--smoke"),
        "serve --attack": partial(_cli, "serve", "--attack",
                                  "targeted-wear", "--mitigate",
                                  "--duration", "0.002", "--rate", "2e6"),
        "serve --attack (unmitigated)": partial(
            _cli, "serve", "--attack", "targeted-wear", "--duration",
            "0.002", "--rate", "2e6"),
        "serve --kill-bank": partial(_cli, "serve", "--shards", "3",
                                     "--segments", "4", "--pages", "16",
                                     "--duration", "0.0004",
                                     "--redundancy", "mirror",
                                     "--kill-bank", "1", "--rate", "2e6"),
        "serve --kill-bank (parity)": partial(
            _cli, "serve", "--shards", "3", "--segments", "4", "--pages",
            "16", "--duration", "0.0004", "--redundancy", "parity",
            "--kill-bank", "1", "--rate", "2e6"),
        "backends": partial(_cli, "backends"),
        "backends --check": partial(_cli, "backends", "--check",
                                    "--record", trace_file),
        "replay": partial(_cli, "replay", trace_file, "--backend",
                          "onfi:factory_bad=1,bb_seed=7"),
        "ci: kill-point sweeps": _ci_kill_point_sweeps,
        "ci: windowed expander": _ci_windowed_expander,
    }
    for name in E2E_WORKLOADS:
        roots[f"e2e {name}"] = partial(_e2e, name,
                                       os.path.join(scratch, "e2e-out"))
    for name in examples():
        if name not in SLOW_EXAMPLES:
            roots[f"example {name}"] = partial(_example, name)
    return roots


def benches() -> List[str]:
    """Every ``benchmarks/bench_*.py``: EXPERIMENTS.md reports from
    them, and CI runs ``bench_faults`` and ``bench_recovery``."""
    return sorted(name for name in os.listdir(os.path.join(ROOT,
                                                           "benchmarks"))
                  if name.startswith("bench_") and name.endswith(".py"))


def _bench(name: str) -> None:
    import pytest

    # The benches rewrite their tables under benchmarks/results/, which
    # git tracks: put every file back as it was.
    results = os.path.join(ROOT, "benchmarks", "results")
    kept = {}
    for entry in os.listdir(results):
        with open(os.path.join(results, entry), "rb") as handle:
            kept[entry] = handle.read()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            # Timed rounds run with the profiler paused: run each bench
            # once, untimed.
            status = pytest.main(["-q", "-x", "-p", "no:cacheprovider",
                                  "--benchmark-disable",
                                  os.path.join(ROOT, "benchmarks", name)])
    finally:
        for entry in os.listdir(results):
            if entry not in kept:
                os.remove(os.path.join(results, entry))
        for entry, data in kept.items():
            with open(os.path.join(results, entry), "wb") as handle:
                handle.write(data)
    if status != 0:
        raise SystemExit(f"{name} failed ({status})")


# ---------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------

def _exemption(function: Function) -> str:
    """The EXEMPT key covering ``function`` (longest match), or ''."""
    best = ""
    for key in EXEMPT:
        if (key == function.key or key == function.module
                or function.key.startswith(key + ".")
                or (":" not in key and function.module.startswith(key + "."))):
            if len(key) > len(best):
                best = key
    return best


def check_exempt(functions: List[Function], quick: Set[Tuple[str, int]],
                 probe: Probe, full: bool) -> List[str]:
    """Every public function the quick roots miss is exempt, every entry
    covers one, and (full) every bench entry is reached by its bench."""
    missed = [f for f in functions if f.public and not f.stub
              and (f.path, f.first_line) not in quick]
    errors = [f"unreached public function {f.key} is not in EXEMPT"
              for f in missed if not _exemption(f)]
    used = {_exemption(f) for f in missed}
    with open(os.path.join(ROOT, "tests", "data", "fidelity.json")) as handle:
        ledger = json.load(handle)
    from repro.paper import CLAIMS
    sections = {claim.section for claim in CLAIMS}
    for key, (reason, evidence) in EXEMPT.items():
        where = f"EXEMPT[{key!r}]"
        if reason not in REASONS:
            errors.append(f"{where}: unknown reason {reason!r}")
        if key not in used:
            errors.append(f"{where}: covers no public function the quick "
                          f"roots miss; drop the entry")
        if reason == "claim" and evidence not in sections and not any(
                k == evidence or k.startswith(evidence + "/")
                for k in ledger):
            errors.append(f"{where}: {evidence!r} is neither a CLAIMS "
                          f"section nor a fidelity.json key")
        if reason == "bench":
            reached = probe.by_root.get(f"bench {evidence}")
            if not os.path.exists(os.path.join(ROOT, "benchmarks",
                                               evidence)):
                errors.append(f"{where}: no benchmarks/{evidence}")
            elif full:
                errors += [f"{where}: {evidence} does not reach {f.key}"
                           for f in missed if _exemption(f) == key
                           and (f.path, f.first_line) not in reached]
    return errors


def report(functions: List[Function], reached: Set[Tuple[str, int]],
           quick: Set[Tuple[str, int]], probe: Probe, out=sys.stdout) -> None:
    """Print every unreached function and a per-module summary; with
    the full roots, also which of them alone reaches a public function."""
    unreached = [f for f in functions
                 if (f.path, f.first_line) not in reached]
    print("Unreached functions (P = public, * = abstract stub, "
          "E = exempt):", file=out)
    for f in unreached:
        flags = ("P" if f.public else " ") + ("*" if f.stub else " ") \
            + ("E" if f.public and _exemption(f) else " ")
        print(f"  {flags} {f.key}  ({f.lines} lines)", file=out)
    slow = {name: codes for name, codes in probe.by_root.items()
            if name.startswith("bench ")
            or name[len("example "):] in SLOW_EXAMPLES}
    if slow:
        print("\nPublic functions only a --roots full root reaches:",
              file=out)
        for f in functions:
            where = (f.path, f.first_line)
            if f.public and where in reached and where not in quick:
                names = [name for name, codes in slow.items()
                         if where in codes]
                print(f"  {f.key}  <- {', '.join(names)}", file=out)
    print(f"\n{'module':40s} {'funcs':>6s} {'unreached':>9s} "
          f"{'lines':>6s} {'unreached':>9s}", file=out)
    totals = [0, 0, 0, 0]
    per_module: Dict[str, List[Function]] = defaultdict(list)
    for function in functions:
        per_module[function.module].append(function)
    for module in sorted(per_module):
        every = per_module[module]
        missed = [f for f in every if f in unreached]
        row = [len(every), len(missed), sum(f.lines for f in every),
               sum(f.lines for f in missed)]
        totals = [a + b for a, b in zip(totals, row)]
        if missed:
            print(f"{module:40s} {row[0]:6d} {row[1]:9d} {row[2]:6d} "
                  f"{row[3]:9d}", file=out)
    print(f"{'total':40s} {totals[0]:6d} {totals[1]:9d} {totals[2]:6d} "
          f"{totals[3]:9d}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--roots", choices=("quick", "full"),
                        default="quick")
    args = parser.parse_args(argv)
    functions = source_functions()
    probe = Probe()
    with tempfile.TemporaryDirectory() as scratch:
        roots = quick_roots(scratch)
        quick_names = set(roots)
        if args.roots == "full":
            for name in SLOW_EXAMPLES:
                roots[f"example {name}"] = partial(_example, name)
            for name in benches():
                roots[f"bench {name}"] = partial(_bench, name)
        inline = SimpleNamespace(Pool=_InlinePool)
        for name, run in roots.items():
            began = time.perf_counter()
            with mock.patch("multiprocessing.get_context",
                            lambda method=None: inline), probe.root(name):
                run()
            print(f"root {name:28s} {time.perf_counter() - began:7.1f} s",
                  file=sys.stderr)
    quick = set().union(*(codes for name, codes in probe.by_root.items()
                          if name in quick_names))
    report(functions, set().union(*probe.by_root.values()), quick, probe)
    errors = check_exempt(functions, quick, probe, args.roots == "full")
    for error in errors:
        print(f"FAIL: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
