"""Pluggable storage backends and the trace/replay subsystem.

The controller consumes the :class:`~repro.backends.base.
StorageBackend` contract instead of constructing the Flash array
directly; ``EnvyConfig(backend="<spec>")`` names any registered
substrate.  Shipped backends:

==========  ==========================================================
``flash``   the simulated Flash array (Figure 12 timing; the default)
``ramdisk`` the :mod:`repro.ramdisk` block device over a DRAM image
``file``    file-backed persistent store, survives process restarts
``onfi``    ONFI-style NAND with command/address/status cycle timing
            and factory bad-block marks
==========  ==========================================================

``python -m repro backends`` lists the registries; ``python -m repro
replay`` re-drives a recorded run against any backend.  See
``docs/BACKENDS.md``.

Importing this package registers the built-in backends and workloads
(each module's ``@register_backend`` decorator runs at import time).
"""

from . import flashsim as _flashsim  # noqa: F401  (registers "flash")
from . import filestore as _filestore  # noqa: F401  (registers "file")
from . import onfi as _onfi  # noqa: F401  (registers "onfi")
from . import ramdisk as _ramdisk  # noqa: F401  (registers "ramdisk")
from .base import StorageBackend
from .consistency import (consistency_report, default_backends,
                          default_config, run_consistency)
from .filestore import FileBackend, FileStoreError
from .onfi import OnfiBackend, OnfiBus
from .ramdisk import RamdiskBackend, RamImage
from .registry import (BackendInfo, RegistryError, WorkloadInfo,
                       backend_info, backend_names, create_backend,
                       create_workload, parse_spec, register_backend,
                       register_workload, workload_info, workload_names)
from .trace import (ReplayResult, RunTrace, config_digest, record_tpca,
                    record_workload, replay_trace, state_digest)

__all__ = [
    "StorageBackend",
    "BackendInfo", "WorkloadInfo", "RegistryError",
    "register_backend", "register_workload",
    "create_backend", "create_workload",
    "backend_names", "workload_names",
    "backend_info", "workload_info", "parse_spec",
    "FileBackend", "FileStoreError",
    "OnfiBackend", "OnfiBus",
    "RamdiskBackend", "RamImage",
    "RunTrace", "ReplayResult",
    "config_digest", "state_digest",
    "record_tpca", "record_workload", "replay_trace",
    "run_consistency", "consistency_report",
    "default_config", "default_backends",
]
