"""eNVy: a non-volatile, main-memory storage system (ASPLOS 1994).

A full reproduction of Wu & Zwaenepoel's eNVy: the Flash substrate, the
battery-backed SRAM write buffer and page table, the copy-on-write
controller presenting a linear persistent memory, the four cleaning
policies of Section 4, the TPC-A database and workload of Section 5, the
hardware extensions of Section 6, and the simulators that regenerate
every figure in the paper's evaluation.

Quick start::

    from repro import EnvySystem, EnvyConfig

    system = EnvySystem(EnvyConfig.small())
    system.write(0, b"persistent bytes at memory speed")
    assert system.read(0, 32).startswith(b"persistent")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results.
"""

from .cleaning import (CleaningPolicy, FifoPolicy, GreedyPolicy,
                       HybridPolicy, LocalityGatheringPolicy,
                       PolicySimulator, SimulationResult, WearLeveler,
                       cleaning_cost, make_policy, measure_cleaning_cost)
from .core import (EnvyConfig, EnvyController, EnvySystem, FlashParams,
                   SramParams, TpcParams, estimate_lifetime, system_cost)
from .db import BTree, TpcaDatabase, TpcaLayout
from .ext import ParallelFlushScheduler, TransactionManager
from .faults import (BadBlockTable, FaultEvent, FaultInjector, FaultPlan,
                     FaultStats, SecDed)
from .flash import FlashArray, FlashSegment
from .obs import (EventBus, LatencyHistogram, ObsEvent, ObservabilityHub,
                  TimeSeriesSampler)
from .ramdisk import BlockDevice
from .service import (DegradedModeError, EnvyService,
                      LoadGenerator, RebuildScheduler, RedundantRouter,
                      ServiceConfig, ServiceStats, ShardRouter, TenantSpec,
                      TenantStats, TokenBucket)
from .sim import SimStats, TimedSimulator, build_tpca_system, simulate_tpca
from .sram import Mmu, PageTable, WriteBuffer
from .workloads import BimodalWorkload, UniformWorkload

__version__ = "1.0.0"

__all__ = [
    "EnvySystem",
    "EnvyController",
    "EnvyConfig",
    "FlashParams",
    "SramParams",
    "TpcParams",
    "FlashArray",
    "FlashSegment",
    "WriteBuffer",
    "PageTable",
    "Mmu",
    "CleaningPolicy",
    "GreedyPolicy",
    "FifoPolicy",
    "LocalityGatheringPolicy",
    "HybridPolicy",
    "WearLeveler",
    "PolicySimulator",
    "SimulationResult",
    "measure_cleaning_cost",
    "cleaning_cost",
    "make_policy",
    "UniformWorkload",
    "BimodalWorkload",
    "TpcaDatabase",
    "TpcaLayout",
    "BTree",
    "TimedSimulator",
    "SimStats",
    "simulate_tpca",
    "build_tpca_system",
    "TransactionManager",
    "ParallelFlushScheduler",
    "FaultPlan",
    "FaultInjector",
    "FaultStats",
    "FaultEvent",
    "SecDed",
    "BadBlockTable",
    "EventBus",
    "ObsEvent",
    "LatencyHistogram",
    "ObservabilityHub",
    "TimeSeriesSampler",
    "BlockDevice",
    "EnvyService",
    "ServiceConfig",
    "ServiceStats",
    "ShardRouter",
    "RedundantRouter",
    "RebuildScheduler",
    "DegradedModeError",
    "TenantSpec",
    "TenantStats",
    "TokenBucket",
    "LoadGenerator",
    "system_cost",
    "estimate_lifetime",
    "__version__",
]
