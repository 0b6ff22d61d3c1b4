"""One schema for ``BENCHMARK.json`` and the suite report.

Both list metrics as ``{"name", "unit", "better"[, "bound"]}`` rows
under the same limits; ``validate_benchmark`` and ``validate_report``
return a list of problems (empty = valid) so callers can print them all.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List

import catalog

__all__ = ["validate_benchmark", "validate_report", "validate_moves",
           "REPORT_SCHEMA"]

REPORT_SCHEMA = "envy-bench-e2e/1"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
MAX_WORKLOADS, MAX_END_TO_END, MAX_PER_LAYER = 8, 16, 128
MAX_BOUND, MAX_WHY = 0.25, 200


def _metric_rows(rows: Any, where: str, bounded: bool,
                 limit: int, names: set) -> List[str]:
    if not isinstance(rows, list) or not 1 <= len(rows) <= limit:
        return [f"{where}: need 1..{limit} metrics"]
    problems = []
    keys = {"name", "unit", "better"} | ({"bound"} if bounded else set())
    for row in rows:
        if not isinstance(row, dict) or set(row) != keys:
            problems.append(f"{where}: row {row!r} must have exactly "
                            f"{sorted(keys)}")
            continue
        if not NAME.match(str(row["name"])):
            problems.append(f"{where}: bad name {row['name']!r}")
        if row["name"] in names:
            problems.append(f"{where}: name {row['name']!r} used twice")
        names.add(row["name"])
        if not UNIT.match(str(row["unit"])):
            problems.append(f"{where}: bad unit {row['unit']!r}")
        if row["better"] not in ("higher", "lower"):
            problems.append(f"{where}: {row['name']}: bad direction")
        if bounded and not 0 < row["bound"] <= MAX_BOUND:
            problems.append(f"{where}: {row['name']}: bound out of range")
    return problems


def validate_benchmark(doc: Dict[str, Any]) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document."""
    expected = {"command", "paths", "run_seconds", "workloads",
                "end_to_end", "per_layer"}
    if set(doc) != expected:
        return [f"keys must be exactly {sorted(expected)}"]
    problems: List[str] = []
    names: set = set()
    workloads = doc["workloads"]
    if not 2 <= len(workloads) <= MAX_WORKLOADS:
        problems.append(f"need 2..{MAX_WORKLOADS} workloads")
    for row in workloads:
        if set(row) != {"name", "why"}:
            problems.append(f"workload row {row!r} must have name, why")
            continue
        if not NAME.match(row["name"]) or row["name"] in names:
            problems.append(f"bad or repeated workload name "
                            f"{row['name']!r}")
        names.add(row["name"])
        if not 0 < len(row["why"]) <= MAX_WHY or "\n" in row["why"]:
            problems.append(f"{row['name']}: why must be one line of at "
                            f"most {MAX_WHY} characters")
    problems += _metric_rows(doc["end_to_end"], "end_to_end", True,
                             MAX_END_TO_END, names)
    problems += _metric_rows(doc["per_layer"], "per_layer", False,
                             MAX_PER_LAYER, names)
    setup = [row for row in doc["end_to_end"]
             if isinstance(row, dict) and row.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" \
            or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if not isinstance(doc["run_seconds"], int) \
            or not 1 <= doc["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    if doc != catalog.benchmark_json():
        problems.append("BENCHMARK.json disagrees with catalog.py")
    return problems


def validate_report(report: Dict[str, Any]) -> List[str]:
    """Problems with a suite report (``out/report.json``)."""
    if report.get("schema") != REPORT_SCHEMA:
        return [f"schema must be {REPORT_SCHEMA!r}"]
    problems: List[str] = []
    for key in ("nproc", "python", "platform", "git_sha", "seed", "scale",
                "calibration_ops_per_s"):
        if key not in report.get("env", {}):
            problems.append(f"env lacks {key}")
    declared = {metric.name: metric for metric in catalog.END_TO_END}
    layered = {metric.name: metric for metric in catalog.PER_LAYER}
    workloads = report.get("workloads", {})
    if set(workloads) != set(catalog.WORKLOADS):
        problems.append("report must hold exactly the declared workloads")
    for name, entry in workloads.items():
        if not re.match(r"^[0-9a-f]{64}$",
                        entry.get("fidelity_digest", "")):
            problems.append(f"{name}: missing fidelity_digest")
        wanted = {metric.name for metric in catalog.END_TO_END
                  if catalog.applies(metric, name)}
        if set(entry.get("end_to_end", {})) != wanted:
            problems.append(f"{name}: end_to_end must be exactly "
                            f"{sorted(wanted)}")
        for metric, row in entry.get("end_to_end", {}).items():
            if row.get("unit") != declared[metric].unit:
                problems.append(f"{name}.{metric}: wrong unit")
            if not isinstance(row.get("value"), (int, float)) \
                    or row.get("n", 0) < 1:
                problems.append(f"{name}.{metric}: needs value and n")
        if "per_layer" in entry:
            wanted = {metric.name for metric in catalog.PER_LAYER
                      if catalog.applies(metric, name)}
            if set(entry["per_layer"]) != wanted:
                problems.append(
                    f"{name}: per_layer lacks "
                    f"{sorted(wanted - set(entry['per_layer']))}, has "
                    f"undeclared "
                    f"{sorted(set(entry['per_layer']) - wanted)}")
            for metric, row in entry["per_layer"].items():
                if metric in layered \
                        and row.get("unit") != layered[metric].unit:
                    problems.append(f"{name}.{metric}: wrong unit")
    return problems


def validate_moves() -> List[str]:
    """Every per-layer metric names a declared metric and workload."""
    problems = []
    end_to_end = {metric.name for metric in catalog.END_TO_END}
    for metric in catalog.PER_LAYER:
        if not metric.moves and metric.name not in catalog.MOVES_NOTHING:
            problems.append(f"{metric.name}: no moves entry")
        for target, workload in metric.moves:
            if target not in end_to_end:
                problems.append(f"{metric.name}: moves undeclared metric "
                                f"{target!r}")
            if workload not in catalog.WORKLOADS:
                problems.append(f"{metric.name}: moves undeclared "
                                f"workload {workload!r}")
        for workload in metric.on:
            if workload not in catalog.WORKLOADS:
                problems.append(f"{metric.name}: on undeclared workload "
                                f"{workload!r}")
    return problems
