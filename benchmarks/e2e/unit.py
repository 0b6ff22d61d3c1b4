"""One unit of one workload, run inside a fresh child process.

``run.py --child`` lands here.  A unit is set-up (import, construction,
warm-up: ``setup_s``), ``gc.collect()``, the timed region
(``wall_s``), then the correctness checks, outside both timings.  The
child reports one JSON object; the parent takes medians across units.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from typing import Any, Dict, List

from repro.perf.bench import calibrate

from layers import trace_workload
from spans import SpanRecorder, layer_self_s
from workloads import make_workload

__all__ = ["run_unit", "fidelity_digest"]

#: Iterations of ``repro.perf.bench.calibrate``'s fixed pure-Python loop
#: run right before and right after the timed region (about 0.12 s
#: each).  This box slows by 20-30% for minutes at a time, set-up and
#: every workload alike; dividing by the speed of a fixed loop measured
#: at the same moment cancels that, which no median within a run can.
CALIBRATION_ITERATIONS = 3_000_000


def fidelity_digest(sim: Dict[str, Any]) -> str:
    """sha256 of the canonical simulated statistics of one unit."""
    return hashlib.sha256(
        json.dumps(sim, sort_keys=True).encode()).hexdigest()


def run_unit(name: str, seed: int, scale: float, trace: bool,
             started: float, out_dir: str) -> Dict[str, Any]:
    """Set up, run and check one unit; ``started`` is the child's
    ``perf_counter`` reading from before anything was imported."""
    import_s = time.perf_counter() - started
    failures: List[str] = []
    report: Dict[str, Any] = {"workload": name, "seed": seed,
                              "scale": scale}
    if trace:
        # The traced unit goes first, while the process is clean, so
        # the peak-RSS growth inside a span belongs to that span.
        workload = make_workload(name)
        workload.setup(seed, scale)
        gc.collect()
        recorder = SpanRecorder(name)
        traced, layers = trace_workload(workload, recorder, seed, scale,
                                        failures)
        failures += workload.check(traced)
        os.makedirs(out_dir, exist_ok=True)
        recorder.write_jsonl(os.path.join(out_dir, f"spans-{name}.jsonl"))
        report["layers"] = layers
        report["layer_self_s"] = layer_self_s(recorder.spans)

    workload = make_workload(name)
    setup_began = time.perf_counter()
    workload.setup(seed, scale)
    gc.collect()
    setup_s = import_s + time.perf_counter() - setup_began
    calibration = calibrate(CALIBRATION_ITERATIONS)
    begin = time.perf_counter()
    outcome = workload.run()
    end = time.perf_counter()
    calibration = (calibration + calibrate(CALIBRATION_ITERATIONS)) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures += workload.check(outcome)
    report.update({
        "setup_s": setup_s, "wall_s": end - begin,
        "calibration_ops_per_s": calibration, "peak_rss_mb": peak_rss_mb,
        "accesses": outcome["accesses"], "offered": outcome["offered"],
        "fidelity_digest": fidelity_digest(outcome["sim"]),
        "metrics": outcome["metrics"], "failures": failures,
    })
    if trace:
        # Tracing is observational: the traced and the untraced unit
        # must produce the same simulated statistics.
        if fidelity_digest(traced["sim"]) != report["fidelity_digest"]:
            failures.append("traced unit's simulated statistics differ "
                            "from the untraced unit's")
        root = recorder.spans[0]
        layers["bench.span_overhead_x"] = (
            (root["end_ns"] - root["start_ns"]) / 1e9 / report["wall_s"])
    return report
