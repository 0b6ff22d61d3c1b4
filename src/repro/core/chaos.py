"""Chaos harness: cut the power at arbitrary Flash operations.

The recovery scan (:func:`repro.core.recovery.recover_from_flash`)
claims that whatever instant the power dies, the array alone
reconstructs a consistent store holding, for every logical page, its
newest *committed* copy.  This module makes that claim executable: it
runs a TPC-A workload against a controller whose Flash operations are
counted, kills the run at a chosen operation (optionally *tearing* the
in-flight program — the page is half-written with a payload that no
longer matches its stamped CRC), recovers from the surviving array, and
compares every logical page against an oracle of committed flushes.

``chaos_sweep`` drives the property test: a dry run counts the total
operations of a seeded workload, then the same workload is replayed
once per kill point.  Everything is deterministic — same seed, same
fault plan, same kill point gives byte-identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from .config import EnvyConfig
from .controller import EnvyController
from .recovery import (RecoveryReport, SimulatedPowerFailure,
                       recover_from_flash)

__all__ = ["ChaosResult", "KillSwitch", "run_chaos", "chaos_sweep",
           "sweep_kill_points", "attach_commit_oracle",
           "recovered_page_bytes"]

#: Bytes written per TPC-A balance update in the replay.
_WORD = 8


@dataclass
class ChaosResult:
    """Outcome of one chaos run (workload + kill + recovery + verify)."""

    kill_at: Optional[int]
    tear: bool
    #: Flash operations counted before the run ended (the total for an
    #: uninterrupted run — use this to choose kill points).
    ops_seen: int = 0
    #: Whether the kill actually fired (False = workload outran it).
    interrupted: bool = False
    #: Pages with at least one committed flush when the power died.
    committed_pages: int = 0
    report: Optional[RecoveryReport] = None
    #: Logical pages whose recovered bytes differ from the oracle.
    mismatches: List[int] = field(default_factory=list)
    verified: bool = False
    #: ``health_report()`` of the workload controller at the cut —
    #: includes the latency-tail percentiles for the run that died.
    health: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return self.verified and not self.mismatches


class KillSwitch:
    """Counts Flash programs/erases and cuts the power at one of them.

    The one power-cut injector: it subscribes to the array's
    ``pre_op_hooks``, so it sees every program and erase of any backend
    before the operation touches the medium, and coexists with any other
    subscriber.  ``kill_at`` is 1-based over the operations seen since
    construction; :meth:`arm` sets it relative to those already seen.  A
    plain kill raises :class:`SimulatedPowerFailure` from the hook (a
    clean cut between cycles); with ``tear=True`` a killed program first
    writes a corrupted payload under the original OOB stamp — the torn
    page a mid-cycle power loss leaves behind, detected at recovery by
    the payload-CRC mismatch.  A fired switch is inert until re-armed,
    and whoever builds one detaches it (:meth:`detach`, or ``with``).

    ``bus`` is an optional :class:`~repro.obs.events.EventBus`; a firing
    kill publishes a ``chaos.kill`` mark so the power cut appears on the
    exported timeline at the exact operation it interrupted.
    """

    def __init__(self, array, kill_at: Optional[int] = None,
                 tear: bool = False, bus=None) -> None:
        self.array = array
        self.kill_at = kill_at
        self.tear = tear
        self.bus = bus
        self.ops = 0
        array.pre_op_hooks.append(self._on_op)

    def arm(self, after_operations: int) -> None:
        """Cut the power on the Nth upcoming program/erase (1-based)."""
        if after_operations < 1:
            raise ValueError("must allow at least one operation")
        if self._on_op not in self.array.pre_op_hooks:
            raise RuntimeError("a detached switch sees no operations")
        self.kill_at = self.ops + after_operations

    def disarm(self) -> None:
        self.kill_at = None

    def _on_op(self, kind: str, segment: int, data, oob) -> None:
        self.ops += 1
        if self.ops != self.kill_at:
            return
        self.kill_at = None
        if self.tear and kind == "program" and data is not None:
            # The torn program is a real one — through the public entry,
            # so a write-through backend persists it — but not one this
            # switch should count or fire on: unsubscribe first.
            self.detach()
            torn = bytes([data[0] ^ 0xFF]) + bytes(data[1:])
            self.array.program_page(segment, torn, oob=oob)
        if self.bus is not None and self.bus.active:
            from ..obs.events import CHAOS_KILL

            self.bus.mark(CHAOS_KILL, {"op": self.ops, "kind": kind,
                                       "tear": self.tear})
        raise SimulatedPowerFailure(
            f"power lost at flash op {self.ops} ({kind})")

    def detach(self) -> None:
        """Unsubscribe from the array (idempotent)."""
        if self._on_op in self.array.pre_op_hooks:
            self.array.pre_op_hooks.remove(self._on_op)

    def __enter__(self) -> "KillSwitch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()


def attach_commit_oracle(ctrl: EnvyController) -> Dict[int, bytes]:
    """Record every committed flush's payload, keyed by logical page.

    Subscribes to the store's ``program_listeners``, which fire only
    after the program (and the bookkeeping behind it) completed — a
    killed or torn program never commits.  The bytes are read back from
    the slot the flush just landed in.
    """
    committed: Dict[int, bytes] = {}

    def logged(page: int, position: int, slot: int, epoch: int) -> None:
        committed[page] = recovered_page_bytes(ctrl, page)

    ctrl.store.program_listeners.append(logged)
    return committed


def recovered_page_bytes(ctrl: EnvyController, page: int) -> bytes:
    """A page's recovered bytes, read without the fault path."""
    zeros = bytes(ctrl.config.page_bytes)
    loc = ctrl.store.page_location[page]
    if loc is None or loc == (-1, -1):
        return zeros
    position, slot = loc
    phys = ctrl.store.positions[position].phys
    data = ctrl.array.segment(phys).read_page(slot)
    return bytes(data) if data is not None else zeros


def _replay(ctrl: EnvyController, layout,
            transactions: int, seed: int) -> None:
    """Replay a seeded TPC-A access trace against the controller."""
    # Imported here: workloads imports core.config, so a module-level
    # import would close a cycle through core/__init__.
    from ..workloads.tpca import TpcaWorkload

    workload = TpcaWorkload(layout, rate_tps=100.0, seed=seed)
    stamp = 0
    for txn in workload.transactions(transactions):
        for is_write, address in workload.accesses(txn):
            address = min(address, ctrl.size_bytes - _WORD)
            if is_write:
                stamp += 1
                ctrl.write(address,
                           stamp.to_bytes(_WORD, "little"))
            else:
                ctrl.read(address, _WORD)


def run_chaos(config: EnvyConfig, transactions: int = 20,
              kill_at: Optional[int] = None, tear: bool = False,
              seed: int = 0, policy=None,
              recover: bool = True) -> ChaosResult:
    """One chaos run: workload, optional kill, recovery, verification.

    ``kill_at=None`` runs to completion (a dry run when ``recover`` is
    False — its ``ops_seen`` is the kill-point space).  Requires a
    data-bearing controller; when checkpointing is off, the store's
    flushed-copy preservation is enabled anyway, since the committed-
    prefix guarantee depends on it once SRAM is assumed lossy.
    """
    from ..db.layout import TpcaLayout

    ctrl = EnvyController(config, policy)
    if not ctrl.store_data:
        raise ValueError("chaos runs need a data-bearing controller")
    ctrl.store.preserve_flushed_copies = True
    layout = TpcaLayout.sized_for(config.logical_bytes)
    committed = attach_commit_oracle(ctrl)
    result = ChaosResult(kill_at=kill_at, tear=tear)
    with KillSwitch(ctrl.array, kill_at=kill_at, tear=tear,
                    bus=ctrl.events) as switch:
        try:
            _replay(ctrl, layout, transactions, seed)
            ctrl.drain()
        except SimulatedPowerFailure:
            result.interrupted = True
    result.ops_seen = switch.ops
    result.committed_pages = len(committed)
    result.health = ctrl.health_report()
    if not recover:
        return result
    recovered, report = recover_from_flash(ctrl.array, config,
                                           policy=policy)
    recovered.check_consistency()
    result.report = report
    zeros = bytes(config.page_bytes)
    for page in range(config.logical_pages):
        want = committed.get(page)
        if want is None:
            want = zeros
        if recovered_page_bytes(recovered, page) != want:
            result.mismatches.append(page)
    result.verified = True
    return result


def sweep_kill_points(run, stride: int = 1, clean_loss: bool = False,
                      **dry_run) -> list:
    """The kill-point sweep every chaos driver shares.

    ``run(kill_at=None, **dry_run)`` is the dry run whose ``ops_seen``
    sizes the sweep; the result is ``run(kill_at=k)`` for every
    ``stride``-th operation ``k`` of it, plus — with ``clean_loss`` —
    one point just past the last operation.  The dry run itself is not
    included.
    """
    ops = run(kill_at=None, **dry_run).ops_seen
    points = list(range(1, ops + 1, max(1, stride)))
    if clean_loss:
        points.append(ops + 1)
    return [run(kill_at=kill_at) for kill_at in points]


def chaos_sweep(config: EnvyConfig, transactions: int = 20,
                stride: int = 1, tear: bool = False, seed: int = 0,
                policy=None) -> List[ChaosResult]:
    """Kill the same seeded run at every ``stride``-th Flash operation;
    every :class:`ChaosResult` should satisfy ``result.ok``."""
    return sweep_kill_points(
        partial(run_chaos, config, transactions, tear=tear, seed=seed,
                policy=policy),
        stride, recover=False)
