"""The repository's benchmark: one command, six workloads.

Driver mode (the ``BENCHMARK.json`` contract)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs units of one workload in fresh child processes for ``S`` seconds
and prints, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (medians across the units).

Suite mode (no ``--workload``)::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats 3] [--scale X]
                                  [--trace] [--selfcheck] [--held-out]
                                  [--record]

runs every workload ``--repeats`` times after one discarded warm-up
round, prints every metric by name with its unit and sample count,
checks correctness and writes ``benchmarks/e2e/out/report.json``.
README.md explains the workloads, the metrics and the span files.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before anything of repro is imported

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
BASELINE_PATH = os.path.join(HERE, "baseline.json")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import schema  # noqa: E402

CHILD_TIMEOUT_S = 170
#: Untimed floor on the units behind a driver-mode median.
MIN_UNITS = 3
Unit = Dict[str, Any]


# ---------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    from unit import run_unit

    report = run_unit(args.workload, args.seed, args.scale,
                      bool(args.trace), _STARTED, OUT_DIR)
    print(json.dumps(report))
    return 0


def run_child(workload: str, seed: int, scale: float, trace: bool) -> Unit:
    """One unit in a fresh process: clean ``ru_maxrss``, no allocator
    or cache carry-over from the previous unit."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--scale", repr(scale), "--trace", str(int(trace))]
    # jobs=1 is passed explicitly everywhere; ENVY_JOBS must not matter.
    env = {key: value for key, value in os.environ.items()
           if key != "ENVY_JOBS"}
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, env=env)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: child exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def unit_failures(units: List[Unit]) -> List[str]:
    """Check failures of the units plus the determinism contract: the
    same seed and scale must give the same simulated statistics."""
    failures = [f"{unit['workload']}: {failure}"
                for unit in units for failure in unit["failures"]]
    if len({unit["fidelity_digest"] for unit in units}) > 1:
        failures.append(f"{units[0]['workload']}: fidelity_digest differs "
                        f"between units of one seed")
    return failures


def host_values(units: List[Unit]) -> Dict[str, List[float]]:
    speeds = [unit["accesses"] / unit["wall_s"] for unit in units]
    return {
        "accesses_per_wall_s": speeds,
        "accesses_per_calib_mop": [
            speed * 1e6 / unit["calibration_ops_per_s"]
            for speed, unit in zip(speeds, units)],
        "peak_rss_mb": [unit["peak_rss_mb"] for unit in units],
        "setup_s": [unit["setup_s"] for unit in units],
    }


# ---------------------------------------------------------------------
# Driver mode
# ---------------------------------------------------------------------

def driver_main(args: argparse.Namespace) -> int:
    if args.workload not in catalog.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose "
                         f"from {sorted(catalog.WORKLOADS)}")
    began = time.perf_counter()
    units: List[Unit] = []
    while True:
        units.append(run_child(args.workload, args.seed, args.scale,
                               bool(args.trace)))
        elapsed = time.perf_counter() - began
        if args.trace:
            # A traced child is several units long: start another only
            # if it should finish inside the budget.
            if elapsed + elapsed / len(units) > args.seconds:
                break
        elif len(units) >= MIN_UNITS and elapsed >= args.seconds:
            break
    failures = unit_failures(units)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    host = host_values(units)
    measured: Dict[str, float] = {}
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        # A metric this workload does not have reads 0: the layer did
        # no work here.
        values = host.get(metric.name) or [
            unit.get("layers", {}).get(
                metric.name, unit["metrics"].get(metric.name, 0.0))
            for unit in units]
        measured[metric.name] = statistics.median(values)
    reported = ([catalog.RAW_WALL] + catalog.SIMULATED + catalog.PER_LAYER
                if args.trace else catalog.HOST)
    metrics = {metric.name: {"value": measured[metric.name],
                             "unit": metric.unit} for metric in reported}
    print(f"{args.workload}: {len(units)} units, seed {args.seed}, "
          f"scale {args.scale}")
    for metric in catalog.END_TO_END + (catalog.PER_LAYER if args.trace
                                        else []):
        if catalog.applies(metric, args.workload):
            print(f"  {metric.name:<40} {measured[metric.name]:>16.6g} "
                  f"{metric.unit}")
    attempted = sum(unit["offered"] for unit in units)
    # A failed check puts the whole run in doubt, not single accesses.
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": attempted if failures else 0, "metrics": metrics}))
    return 1 if failures else 0


# ---------------------------------------------------------------------
# Suite mode
# ---------------------------------------------------------------------

def run_set(seed: int, scale: float, repeats: int, label: str
            ) -> Dict[str, List[Unit]]:
    """``repeats`` units per workload after one discarded warm-up round;
    the workload order rotates between rounds so no workload always
    runs first (or right after the memory-heavy ones)."""
    names = list(catalog.WORKLOADS)
    units: Dict[str, List[Unit]] = {name: [] for name in names}
    for round_index in range(repeats + 1):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            unit = run_child(name, seed, scale, trace=False)
            if round_index:
                units[name].append(unit)
            print(f"  [{label} round {round_index}/{repeats}] {name}: "
                  f"{unit['accesses'] / unit['wall_s']:,.0f} accesses/s "
                  f"in {unit['wall_s']:.2f}s"
                  f"{' (warm-up, discarded)' if not round_index else ''}",
                  flush=True)
    return units


def summarize(units: Dict[str, List[Unit]]) -> Dict[str, Any]:
    workloads: Dict[str, Any] = {}
    for name, rows in units.items():
        end_to_end: Dict[str, Any] = {}
        values = host_values(rows)
        for metric in catalog.HOST + [catalog.RAW_WALL]:
            samples = values[metric.name]
            end_to_end[metric.name] = {
                "value": statistics.median(samples), "unit": metric.unit,
                "min": min(samples), "max": max(samples),
                "n": len(samples)}
        for metric in catalog.SIMULATED:
            if catalog.applies(metric, name):
                end_to_end[metric.name] = {
                    "value": rows[0]["metrics"][metric.name],
                    "unit": metric.unit, "n": len(rows)}
        workloads[name] = {
            "why": catalog.WORKLOADS[name],
            "accesses": rows[0]["accesses"],
            "offered": rows[0]["offered"],
            "fidelity_digest": rows[0]["fidelity_digest"],
            "end_to_end": end_to_end,
        }
    return workloads


def print_summary(workloads: Dict[str, Any]) -> None:
    for name, entry in workloads.items():
        print(f"\n{name}  ({entry['accesses']:,} accesses served of "
              f"{entry['offered']:,} offered, digest "
              f"{entry['fidelity_digest'][:12]})")
        for metric, row in entry["end_to_end"].items():
            spread = (f"  [{row['min']:.6g} .. {row['max']:.6g}]"
                      if "min" in row else "  (exact per seed)")
            print(f"  {metric:<22} {row['value']:>16.6g} "
                  f"{row['unit']:<12} n={row['n']}{spread}")
        for metric, row in entry.get("per_layer", {}).items():
            print(f"    {metric:<38} {row['value']:>16.6g} {row['unit']}")
        if "layer_self_s" in entry:
            shares = ", ".join(
                f"{layer} {share:.0%}" for layer, share in sorted(
                    entry["layer_self_share"].items(),
                    key=lambda item: -item[1]))
            print(f"    traced self-time by layer: {shares}")


def add_traces(workloads: Dict[str, Any], seed: int, scale: float
               ) -> List[str]:
    units = []
    declared = {metric.name: metric for metric in catalog.PER_LAYER}
    for name, entry in workloads.items():
        unit = run_child(name, seed, scale, trace=True)
        units.append(unit)
        if unit["fidelity_digest"] != entry["fidelity_digest"]:
            unit["failures"].append("traced child's digest differs from "
                                    "the untraced units'")
        entry["per_layer"] = {
            metric: {"value": value, "unit": declared[metric].unit}
            for metric, value in unit["layers"].items()}
        entry["layer_self_s"] = unit["layer_self_s"]
        total = sum(unit["layer_self_s"].values())
        entry["layer_self_share"] = {
            layer: seconds / total
            for layer, seconds in unit["layer_self_s"].items()}
        print(f"  [trace] {name}: spans in out/spans-{name}.jsonl",
              flush=True)
    return [f"{unit['workload']}: {failure}"
            for unit in units for failure in unit["failures"]]


def worse_by(metric: catalog.Metric, base: float, value: float) -> float:
    """Share of ``base`` by which ``value`` is worse (negative = better)."""
    change = (value - base) / base
    return -change if metric.better == "higher" else change


def compare_sets(first: Dict[str, Any], second: Dict[str, Any]
                 ) -> Dict[str, Any]:
    """Per workload x end-to-end metric: both medians, the run-to-run
    spread and ok / unresolved / regressed against the metric's bound."""
    table: Dict[str, Any] = {}
    for name in first:
        table[name] = {}
        for metric in catalog.END_TO_END:
            a = first[name]["end_to_end"].get(metric.name)
            b = second[name]["end_to_end"].get(metric.name)
            if a is None:
                continue
            row = {"first": a["value"], "second": b["value"],
                   "bound": metric.bound}
            if "min" not in a:  # simulated: exact per seed
                row["spread"] = 0.0
                row["verdict"] = ("ok" if a["value"] == b["value"]
                                  else "regressed")
            else:
                row["spread"] = max(
                    (side["max"] - side["min"]) / side["value"]
                    for side in (a, b))
                worse = worse_by(metric, a["value"], b["value"])
                separated = (b["min"] > a["max"]
                             if metric.better == "higher"
                             else b["max"] < a["min"])
                if row["spread"] > metric.bound and not separated:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = ("regressed" if worse > metric.bound
                                      else "ok")
            table[name][metric.name] = row
    return table


def print_comparison(title: str, table: Dict[str, Any]) -> List[str]:
    print(f"\n{title}")
    problems = []
    for name, rows in table.items():
        for metric, row in rows.items():
            print(f"  {name:<16} {metric:<22} {row['first']:>14.6g} "
                  f"{row['second']:>14.6g}  spread {row['spread']:>6.1%} "
                  f"bound {row['bound']:>4.0%}  {row['verdict']}")
            if row["verdict"] == "regressed":
                problems.append(f"{name}.{metric}: regressed "
                                f"({row['first']:.6g} -> "
                                f"{row['second']:.6g})")
    return problems


def environment(seed: int, scale: float) -> Dict[str, Any]:
    from repro.perf.bench import calibrate

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": sha,
            "seed": seed, "scale": scale,
            "calibration_ops_per_s": calibrate()}


def check_baseline(report: Dict[str, Any]) -> List[str]:
    """At the recorded seed and scale the simulated statistics must be
    the recorded ones: a host-speed change leaves them bit-identical."""
    if not os.path.exists(BASELINE_PATH):
        return []
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        baseline = json.load(handle)
    env = report["env"]
    if (env["seed"], env["scale"]) != (baseline["env"]["seed"],
                                       baseline["env"]["scale"]):
        print("\nbaseline.json is for another seed or scale; the "
              "fidelity digests were not compared")
        return []
    problems = []
    for name, entry in report["workloads"].items():
        recorded = baseline["workloads"][name]
        if entry["fidelity_digest"] != recorded["fidelity_digest"]:
            problems.append(f"{name}: fidelity_digest changed from the "
                            f"recorded baseline")
        for metric, row in entry["end_to_end"].items():
            old = recorded["end_to_end"][metric]["value"]
            if "min" not in row and row["value"] != old:
                print(f"  CHANGED {name}.{metric}: {old!r} -> "
                      f"{row['value']!r}")
    return problems


def suite_main(args: argparse.Namespace) -> int:
    problems: List[str] = []
    report: Dict[str, Any] = {"schema": schema.REPORT_SCHEMA,
                              "env": environment(args.seed, args.scale),
                              "repeats": args.repeats}
    units = run_set(args.seed, args.scale, args.repeats, "set 1")
    for rows in units.values():
        problems += unit_failures(rows)
    workloads = summarize(units)
    report["workloads"] = workloads
    if args.trace:
        problems += add_traces(workloads, args.seed, args.scale)
    print_summary(workloads)
    problems += check_baseline(report)

    if args.selfcheck:
        again = run_set(args.seed, args.scale, args.repeats, "set 2")
        for rows in again.values():
            problems += unit_failures(rows)
        report["selfcheck"] = compare_sets(workloads, summarize(again))
        problems += print_comparison(
            "selfcheck: two sets of the same code", report["selfcheck"])
    if args.held_out:
        held = run_set(catalog.HELD_OUT_SEED, args.scale, args.repeats,
                       "held-out seed")
        for rows in held.values():
            problems += unit_failures(rows)
        table = compare_sets(workloads, summarize(held))
        # Another seed is another input: only host speed is comparable.
        report["held_out"] = {
            name: {metric: rows[metric]
                   for metric in ("accesses_per_calib_mop",
                                  "accesses_per_wall_s")}
            for name, rows in table.items()}
        problems += print_comparison(
            f"held-out seed {catalog.HELD_OUT_SEED} against seed "
            f"{args.seed}", report["held_out"])

    problems += schema.validate_report(report)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "report.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nreport written to {os.path.relpath(path, ROOT)}")
    if args.record and not problems:
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline recorded in {os.path.relpath(BASELINE_PATH, ROOT)}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="eNVy end-to-end benchmark")
    parser.add_argument("--workload", help="driver mode: run this one "
                        "workload and print the result line")
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=catalog.RUN_SECONDS,
                        help="driver mode: keep starting units for this "
                             "long (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also (suite) or only "
                        "(driver) measure the per-layer metrics")
    parser.add_argument("--scale", type=float, default=catalog.SCALE,
                        help="work per unit; 1.0 = the sizes in README.md "
                             "(default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite mode: units per workload after the "
                             "discarded warm-up round")
    parser.add_argument("--selfcheck", action="store_true",
                        help="suite mode: run two sets and compare them")
    parser.add_argument("--held-out", action="store_true",
                        help="suite mode: also run the held-out seed")
    parser.add_argument("--record", action="store_true",
                        help="suite mode: record this run as baseline.json")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.repeats < 1 or args.seconds <= 0:
        parser.error("--scale, --repeats and --seconds must be positive")
    if args.child:
        return child_main(args)
    if args.workload:
        return driver_main(args)
    return suite_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
