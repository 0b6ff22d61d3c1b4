"""Core eNVy system: configuration, controller, metrics, economics.

The controller (`EnvySystem`) is the paper's primary contribution; the
rest of this package holds the Figure 12 configuration, the Figure 1
cost model, the Section 5.5 lifetime model and the metrics plumbing.
"""

from .binding import BoundStore
from .config import EnvyConfig, FlashParams, SramParams, TpcParams
from .controller import EnvyController, EnvySystem
from .costmodel import TECHNOLOGIES, EnvyCostBreakdown, system_cost
from .lifetime import LifetimeEstimate, estimate_lifetime, paper_example
from .metrics import ControllerMetrics
from .persistence import load_system, save_system
from .prototype import (PrototypeController, PrototypeTimings,
                        narrow_path_timings, prototype_config)
from .tracing import RunTrace
from .recovery import (CleaningJournal, CleanPhase, RecoveryError,
                       RecoveryMismatch, RecoveryReport,
                       SimulatedPowerFailure, attach_journal, recover,
                       recover_from_flash, verify_against_scan)
from .checkpoint import (CheckpointError, CheckpointManager,
                         read_latest_checkpoint)
from .chaos import (ChaosReport, KillSwitch, attach_commit_oracle, drill,
                    recovered_page_bytes, run_chaos, sweep_kill_points)

__all__ = [
    "EnvyConfig",
    "FlashParams",
    "SramParams",
    "TpcParams",
    "EnvyController",
    "EnvySystem",
    "BoundStore",
    "ControllerMetrics",
    "TECHNOLOGIES",
    "EnvyCostBreakdown",
    "system_cost",
    "LifetimeEstimate",
    "estimate_lifetime",
    "paper_example",
    "save_system",
    "load_system",
    "PrototypeController",
    "PrototypeTimings",
    "prototype_config",
    "narrow_path_timings",
    "CleaningJournal",
    "CleanPhase",
    "SimulatedPowerFailure",
    "attach_journal",
    "recover",
    "RecoveryReport",
    "RecoveryError",
    "RecoveryMismatch",
    "recover_from_flash",
    "verify_against_scan",
    "CheckpointManager",
    "CheckpointError",
    "read_latest_checkpoint",
    "ChaosReport",
    "KillSwitch",
    "drill",
    "run_chaos",
    "sweep_kill_points",
    "attach_commit_oracle",
    "recovered_page_bytes",
    "RunTrace",
]
