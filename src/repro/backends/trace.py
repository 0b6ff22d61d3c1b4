"""Replay a run trace on any backend and reduce the result to a digest.

The backend boundary makes "same input" testable: replaying one
:class:`~repro.core.tracing.RunTrace` against the same config on a
different backend must produce the same logical page state, because
nothing below the backend boundary is allowed to influence placement.
:func:`state_digest` reduces that state to one hash, and
:mod:`repro.backends.consistency` turns the equality into a gate.
:func:`record_tpca` and :func:`record_workload` produce the traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Tuple

from ..core.config import EnvyConfig
from ..core.tracing import RunTrace, config_digest
from .registry import create_workload

__all__ = ["RunTrace", "ReplayResult", "config_digest", "state_digest",
           "record_tpca", "record_workload", "replay_trace"]

#: Bytes per TPC-A balance update (matches the chaos harness).
_WORD = 8


def state_digest(controller) -> str:
    """SHA-256 over every logical page's bytes, in page order.

    Reads bypass the fault-injection path (the digest captures what the
    cells hold, not what an armed injector shows), so it is stable
    across backends and across reruns.  Call after ``drain()`` for a
    buffered controller — SRAM-resident pages are not part of the
    Flash-side state.
    """
    from ..core.chaos import recovered_page_bytes

    digest = hashlib.sha256()
    for page in range(controller.config.logical_pages):
        digest.update(recovered_page_bytes(controller, page))
    return digest.hexdigest()


def _page_payload(page: int, seq: int, page_bytes: int) -> bytes:
    """Deterministic, page- and sequence-unique full-page payload."""
    stamp = page.to_bytes(4, "little") + seq.to_bytes(4, "little")
    repeats = (page_bytes + len(stamp) - 1) // len(stamp)
    return (stamp * repeats)[:page_bytes]


@dataclass
class ReplayResult:
    """Outcome of replaying one trace against one backend/config."""

    backend: str
    digest: str
    total_ns: int
    ops: int
    writes: int
    reads: int
    health: dict = field(default_factory=dict)
    controller: object = None

    def summary(self) -> dict:
        """JSON-safe view (drops the live controller)."""
        return {"backend": self.backend, "digest": self.digest,
                "total_ns": self.total_ns, "ops": self.ops,
                "writes": self.writes, "reads": self.reads}


def _result(ctrl, trace: RunTrace, total_ns: int,
            keep_controller: bool = False) -> ReplayResult:
    """Drain ``ctrl`` and reduce the state ``trace`` left to a result."""
    ctrl.drain()
    return ReplayResult(
        backend=ctrl.config.backend or "flash",
        digest=state_digest(ctrl), total_ns=total_ns,
        ops=len(trace.ops), writes=trace.writes, reads=trace.reads,
        health=ctrl.health_report(),
        controller=ctrl if keep_controller else None)


def replay_trace(trace: RunTrace, config: EnvyConfig, policy=None,
                 check_config: bool = True,
                 keep_controller: bool = False) -> ReplayResult:
    """Drive ``config``'s backend with every operation of ``trace``.

    Drains the write buffer at the end so the digest covers the full
    Flash-side state.  ``check_config=False`` skips the header
    validation (for exploratory replays against deliberately different
    configs — the digest then means nothing across runs).
    """
    from ..core.controller import EnvyController

    if check_config:
        trace.validate_for(config)
    ctrl = EnvyController(config, policy)
    return _result(ctrl, trace, trace.drive(ctrl), keep_controller)


def record_tpca(config: EnvyConfig, transactions: int = 40,
                seed: int = 0, policy=None
                ) -> Tuple[RunTrace, "ReplayResult"]:
    """Record a seeded TPC-A run (the chaos harness's workload).

    Returns the trace plus the recording run's own
    :class:`ReplayResult`, so the recorder doubles as the reference
    point for cross-backend comparison.
    """
    from ..core.controller import EnvyController
    from ..db.layout import TpcaLayout
    from ..workloads.tpca import TpcaWorkload

    ctrl = EnvyController(config, policy)
    layout = TpcaLayout.sized_for(config.logical_bytes)
    workload = TpcaWorkload(layout, rate_tps=100.0, seed=seed)
    stamp = 0
    with RunTrace.of(ctrl, seed=seed).recording(ctrl) as trace:
        for txn in workload.transactions(transactions):
            for is_write, address in workload.accesses(txn):
                address = min(address, ctrl.size_bytes - _WORD)
                if is_write:
                    stamp += 1
                    ctrl.write(address, stamp.to_bytes(_WORD, "little"))
                else:
                    ctrl.read(address, _WORD)
    return trace, _result(ctrl, trace, 0)


def record_workload(config: EnvyConfig, workload_spec: str,
                    writes: int, seed: int = 0, policy=None
                    ) -> Tuple[RunTrace, "ReplayResult"]:
    """Record ``writes`` full-page writes from a registry workload.

    The workload names pages; payloads are deterministic functions of
    (page, sequence), so the recorded trace fully determines the final
    state.
    """
    from ..core.controller import EnvyController

    ctrl = EnvyController(config, policy)
    workload = create_workload(workload_spec, config.logical_pages,
                               seed=seed)
    page_bytes = config.page_bytes
    with RunTrace.of(ctrl, seed=seed).recording(ctrl) as trace:
        for seq in range(writes):
            page = workload.next_page()
            ctrl.write(page * page_bytes,
                       _page_payload(page, seq, page_bytes))
    return trace, _result(ctrl, trace, 0)
