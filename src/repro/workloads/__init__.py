"""Workload generators: uniform, bimodal hot/cold, Zipf, TPC-A, traces."""

from .base import WriteWorkload
from .bimodal import BimodalWorkload, parse_locality
from .mixture import MixtureWorkload
from .sequential import SequentialWorkload, StridedWorkload
from .timed import SyntheticTimedWorkload
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
    "MixtureWorkload",
    "ZipfWorkload",
    "TraceWorkload",
    "TpcaWorkload",
    "TpcaTransaction",
    "SyntheticTimedWorkload",
    "parse_locality",
    "page_runs",
]
