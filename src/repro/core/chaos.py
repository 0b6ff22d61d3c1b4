"""Chaos harness: cut the power at arbitrary Flash operations.

The recovery scan (:func:`repro.core.recovery.recover_from_flash`)
claims that whatever instant the power dies, the array alone
reconstructs a consistent store holding, for every logical page, its
newest *committed* copy.  This module makes that claim executable as
one property over every driver: :func:`drill` runs a workload on one
or more banks with a :class:`KillSwitch` armed on one of them (a kill
optionally *tears* the in-flight program — the page is half-written
with a payload that no longer matches its stamped CRC), and
:meth:`ChaosReport.recover` rebuilds every bank from its surviving
array and compares each logical page against an oracle of committed
flushes.  :func:`run_chaos` drills a single controller under TPC-A;
:mod:`repro.service.chaos` drills a sharded service.

:func:`sweep_kill_points` is the one property test: a dry run counts
the victim's operations, then the same workload is replayed once per
kill point.  Everything is deterministic — same seed, same fault plan,
same kill point gives byte-identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .config import EnvyConfig
from .controller import EnvyController
from .recovery import (RecoveryReport, SimulatedPowerFailure,
                       recover_from_flash)

__all__ = ["ChaosReport", "KillSwitch", "drill", "run_chaos",
           "sweep_kill_points", "attach_commit_oracle",
           "recovered_page_bytes"]

#: Bytes written per TPC-A balance update in the replay.
_WORD = 8


@dataclass
class ChaosReport:
    """Outcome of one drill: workload, kill, recovery, verification."""

    #: The bank the kill switch was armed on.
    victim: int
    kill_at: Optional[int]
    tear: bool
    #: Flash operations the victim issued (the kill-point space when
    #: the run was a dry run).
    ops_seen: int = 0
    #: Whether the kill fired (False = the victim outran it).
    interrupted: bool = False
    #: Victim pages with at least one committed flush at the cut.
    committed_pages: int = 0
    #: Per-bank recovery summaries, in recovery order: ``shard``,
    #: ``mode`` (checkpoint / full-scan), ``committed_pages``,
    #: ``mismatches``.
    shards: List[Dict] = field(default_factory=list)
    #: The per-bank recovery scans, aligned with ``shards``.
    reports: List[RecoveryReport] = field(default_factory=list)
    #: Every ``(bank, page)`` whose recovered bytes differ from that
    #: bank's commit oracle.
    mismatches: List[Tuple[int, int]] = field(default_factory=list)
    #: A drill's further checks: check name -> pages it found wrong.
    checks: Dict[str, List[int]] = field(default_factory=dict)
    #: A drill's further tallies (the redundancy drill's phases).
    counts: Dict = field(default_factory=dict)
    #: ``health_report()`` of the victim at the cut — includes the
    #: latency-tail percentiles for the run that died.
    health: Optional[Dict] = None
    verified: bool = False

    @property
    def ok(self) -> bool:
        return (self.verified and not self.mismatches
                and not any(self.checks.values())
                and self.counts.get("rebuild_verified") is not False)

    def recover(self, arrays, config: EnvyConfig, oracles,
                banks: Optional[Sequence[int]] = None,
                policy=None) -> None:
        """Rebuild each bank from its own array and compare it.

        Banks share nothing, and recovery honours that: each array is
        rebuilt by :func:`recover_from_flash` alone (and
        ``check_consistency``-verified), then byte-compared against its
        own ``{logical_page: bytes}`` oracle (see
        :func:`attach_commit_oracle`), unlogged pages reading as zeros.
        ``config`` is the shared per-bank geometry; ``banks`` labels
        the arrays (default ``0..n-1``).  Marks the report ``verified``.
        """
        if len(oracles) != len(arrays):
            raise ValueError("need exactly one oracle per bank")
        zeros = bytes(config.page_bytes)
        for bank, array, oracle in zip(banks or range(len(arrays)),
                                       arrays, oracles):
            recovered, scan = recover_from_flash(array, config,
                                                 policy=policy)
            recovered.check_consistency()
            wrong = [page for page in range(config.logical_pages)
                     if recovered_page_bytes(recovered, page)
                     != oracle.get(page, zeros)]
            self.reports.append(scan)
            self.shards.append({"shard": bank, "mode": scan.mode,
                                "committed_pages": len(oracle),
                                "mismatches": len(wrong)})
            self.mismatches.extend((bank, page) for page in wrong)
        self.verified = True


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


def drill(controllers: Sequence[EnvyController], victim: int,
          run_bank: Callable[[int, EnvyController], None],
          kill_at: Optional[int] = None, tear: bool = False,
          recover: bool = True, policy=None) -> ChaosReport:
    """The one setup–cut–recover sequence of every chaos driver.

    Every bank gets flushed-copy preservation (the committed-prefix
    guarantee depends on it once SRAM is assumed lossy) and a commit
    oracle; then ``run_bank(index, ctrl)`` runs each bank in turn with
    the switch armed on ``victim`` only.  ``kill_at`` is 1-based over
    the victim's Flash operations; ``None`` runs to completion — with
    ``recover=False`` that is the dry run sizing a sweep.  With
    ``recover``, every bank — interrupted or not — is rebuilt and
    compared (:meth:`ChaosReport.recover`).
    """
    if not 0 <= victim < len(controllers):
        raise IndexError(f"no bank {victim}")
    oracles = []
    for ctrl in controllers:
        ctrl.store.preserve_flushed_copies = True
        oracles.append(attach_commit_oracle(ctrl))
    report = ChaosReport(victim=victim, kill_at=kill_at, tear=tear)
    for index, ctrl in enumerate(controllers):
        with KillSwitch(ctrl.array,
                        kill_at=kill_at if index == victim else None,
                        tear=tear, bus=ctrl.events) as switch:
            try:
                run_bank(index, ctrl)
            except SimulatedPowerFailure:
                report.interrupted = True
        if index == victim:
            report.ops_seen = switch.ops
            report.committed_pages = len(oracles[index])
            report.health = ctrl.health_report()
    if recover:
        report.recover([ctrl.array for ctrl in controllers],
                       controllers[victim].config, oracles,
                       policy=policy)
    return report


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
    ctrl.drain()


def run_chaos(config: EnvyConfig, transactions: int = 20,
              kill_at: Optional[int] = None, tear: bool = False,
              seed: int = 0, policy=None,
              recover: bool = True) -> ChaosReport:
    """One TPC-A drill on one controller (bank 0, the victim).

    ``kill_at=None`` runs to completion (a dry run when ``recover`` is
    False — its ``ops_seen`` is the kill-point space).  Requires a
    data-bearing controller.
    """
    from ..db.layout import TpcaLayout

    ctrl = EnvyController(config, policy)
    if not ctrl.store_data:
        raise ValueError("chaos runs need a data-bearing controller")
    layout = TpcaLayout.sized_for(config.logical_bytes)
    return drill([ctrl], 0,
                 lambda _, bank: _replay(bank, layout, transactions, seed),
                 kill_at, tear, recover, policy)


def sweep_kill_points(run, stride: int = 1, clean_loss: bool = False,
                      **dry_run) -> list:
    """The one kill-point sweep.

    ``run(kill_at=None, **dry_run)`` is the dry run whose ``ops_seen``
    sizes the sweep; the result is ``run(kill_at=k)`` for every
    ``stride``-th operation ``k`` of it, plus — with ``clean_loss`` —
    one point just past the last operation.  The dry run itself is not
    included.  Bind a driver's other arguments with
    :func:`functools.partial`; every report should satisfy ``ok``.
    """
    ops = run(kill_at=None, **dry_run).ops_seen
    points = list(range(1, ops + 1, max(1, stride)))
    if clean_loss:
        points.append(ops + 1)
    return [run(kill_at=kill_at) for kill_at in points]
