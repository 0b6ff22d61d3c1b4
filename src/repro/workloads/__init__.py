"""Workload generators: uniform, bimodal hot/cold, Zipf, TPC-A, traces."""

from .base import WriteWorkload
from .bimodal import BimodalWorkload, parse_locality
from .sequential import SequentialWorkload, StridedWorkload
from .tpca import TpcaTransaction, TpcaWorkload, page_runs
from .trace import TraceWorkload
from .uniform import UniformWorkload
from .zipf import ZipfWorkload

__all__ = [
    "WriteWorkload",
    "UniformWorkload",
    "BimodalWorkload",
    "SequentialWorkload",
    "StridedWorkload",
    "ZipfWorkload",
    "TraceWorkload",
    "TpcaWorkload",
    "TpcaTransaction",
    "parse_locality",
    "page_runs",
]
