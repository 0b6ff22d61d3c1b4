"""Performance layer: parallel sweep runner and machine calibration.

The paper's figures are grids of independent simulation points;
:func:`run_sweep` fans them out across processes with results identical
to a serial loop (see :mod:`repro.perf.sweep` for the determinism
contract).  :mod:`repro.perf.bench` holds the machine-speed score the
repo's benchmark (``BENCHMARK.json``, ``benchmarks/e2e/``) normalises
its wall-clock throughputs by.
"""

from .points import cleaning_cost_point, tpca_point
from .sweep import derive_seed, resolve_jobs, run_sweep

__all__ = [
    "run_sweep",
    "resolve_jobs",
    "derive_seed",
    "cleaning_cost_point",
    "tpca_point",
]
