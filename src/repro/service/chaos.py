"""Service-level chaos: kill one bank mid-batch, recover every bank.

The core chaos harness (:mod:`repro.core.chaos`) proves the recovery
guarantee for a single controller.  The service raises the stakes: N
shards serve interleaved tenant batches, the power dies on *one* shard
in the middle of a coalesced write batch, and recovery must proceed
**per shard, independently** — each bank's Flash array alone rebuilds
that bank's committed state, with no cross-shard metadata to consult
(shards share nothing; that independence is the router's core
invariant).

The drill reuses the core harness's published pieces —
:class:`~repro.core.chaos.KillSwitch` to cut the power at a chosen
Flash operation, :func:`~repro.core.chaos.attach_commit_oracle` to log
every committed flush, :func:`~repro.core.recovery.recover_from_flash`
to rebuild each bank, and :func:`~repro.core.chaos.
recovered_page_bytes` to compare — and drives them through the real
service path: the multi-tenant :class:`~repro.service.loadgen.
LoadGenerator` schedule, partitioned by shard, executed by
:class:`~repro.service.executor.ShardExecutor` with stamped payloads so
every committed write is distinguishable.

:func:`service_chaos_sweep` is the property test: a dry run counts the
victim shard's Flash operations, then the same seeded service run is
killed at every ``stride``-th one.  Every report must satisfy
``report.ok`` — all shards (killed and survivors alike) recover exactly
their committed pages.

:func:`run_redundancy_chaos` raises the stakes once more: the victim
bank is not merely power-cycled but *lost* — declared dead mid-batch
with its SRAM gone — and the service must keep serving every logical
page from mirrors or parity reconstruction, recover the dead array's
committed prefix post mortem, rebuild a blank replacement online from
its peers, and return to full health with every byte intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.chaos import (KillSwitch, attach_commit_oracle,
                          sweep_kill_points)
from ..core.controller import EnvyController
from ..core.recovery import SimulatedPowerFailure, recover_banks
from .executor import ShardExecutor
from .frontend import EnvyService, ServiceConfig
from .loadgen import LoadGenerator
from .redundancy import DegradedModeError
from .tenant import TenantSpec

__all__ = ["ServiceChaosReport", "run_service_chaos",
           "service_chaos_sweep", "RedundancyChaosReport",
           "run_redundancy_chaos", "redundancy_chaos_sweep"]

#: Stamp width of the drills' write payloads, matching the executor's.
_WORD = 8


@dataclass
class ServiceChaosReport:
    """Outcome of one service chaos drill (kill + N recoveries)."""

    kill_shard: int
    kill_at: Optional[int]
    tear: bool
    #: Flash operations the victim shard issued (the kill-point space
    #: when the run was a dry run).
    ops_seen: int = 0
    #: Whether the kill fired (False = the victim outran it).
    interrupted: bool = False
    #: Per-shard recovery summaries, in shard order: ``shard``,
    #: ``mode`` (checkpoint / full-scan), ``committed_pages``,
    #: ``mismatches``.
    shards: List[Dict] = field(default_factory=list)
    #: Every (shard, logical_page) whose recovered bytes differ from
    #: that shard's commit oracle.
    mismatches: List[Tuple[int, int]] = field(default_factory=list)
    verified: bool = False

    @property
    def ok(self) -> bool:
        return self.verified and not self.mismatches


def _chaos_config(config: Optional[ServiceConfig]) -> ServiceConfig:
    """The drill variant of a service config: data-bearing shards,
    stampable payloads, no prewarm (committed state starts empty)."""
    base = config or ServiceConfig(num_shards=2, num_segments=4,
                                   pages_per_segment=16)
    return replace(base, store_data=True, prewarm_turnovers=0.0)


def run_service_chaos(config: Optional[ServiceConfig] = None,
                      tenants: Optional[Sequence[TenantSpec]] = None,
                      duration_s: float = 0.0005,
                      kill_shard: int = 0,
                      kill_at: Optional[int] = None,
                      tear: bool = False,
                      recover: bool = True,
                      record_to: Optional[EnvyService] = None
                      ) -> ServiceChaosReport:
    """One drill: service run, kill one shard, recover all shards.

    The schedule is the deterministic service schedule for
    ``(config.seed, tenants, duration_s)``; ``kill_at`` is 1-based over
    the victim shard's Flash operations (``None`` runs to completion —
    with ``recover=False`` that is the dry run sizing a sweep).  Every
    shard — interrupted or not — is then rebuilt from its array alone
    (via :func:`~repro.core.recovery.recover_banks`) and byte-compared
    against its own commit oracle.  ``record_to`` folds the per-shard
    recovery outcome into that service's :meth:`~repro.service.
    frontend.EnvyService.health_report` (its ``recovery`` section).
    """
    config = _chaos_config(config)
    config.validate()
    if not 0 <= kill_shard < config.num_shards:
        raise IndexError(f"no shard {kill_shard}")
    # The default tenant's rate leaves idle gaps between arrivals: the
    # flusher and cleaner need background time to issue the Flash
    # programs and erases that make up the kill-point space.
    specs = list(tenants) if tenants else [
        TenantSpec("writer", rate_tps=2e6, write_fraction=0.9, skew=0.8)]
    router = config.make_router()
    generator = LoadGenerator(specs, router.num_pages, config.page_bytes,
                              seed=config.seed)
    schedule, _ = generator.generate(duration_s)
    num_shards = config.num_shards
    slices: List[list] = [[] for _ in range(num_shards)]
    for arrival, tenant, seq, is_write, page in schedule:
        slices[page % num_shards].append(
            (arrival, tenant, seq, is_write, page // num_shards))

    report = ServiceChaosReport(kill_shard=kill_shard, kill_at=kill_at,
                                tear=tear)
    shard_config = config.shard_config()
    tenant_names = [spec.name for spec in specs]
    oracles: List[Dict[int, Optional[bytes]]] = []
    controllers: List[EnvyController] = []
    for index in range(num_shards):
        ctrl = EnvyController(shard_config, store_data=True)
        ctrl.store.preserve_flushed_copies = True
        if config.prewarm_turnovers > 0:
            ctrl.prewarm(config.prewarm_turnovers)
        oracles.append(attach_commit_oracle(ctrl))
        controllers.append(ctrl)

    for index in range(num_shards):
        ctrl = controllers[index]
        executor = ShardExecutor(
            ctrl, index, tenant_names,
            queue_capacity=config.queue_capacity,
            soft_watermark=config.soft_watermark,
            hard_watermark=config.hard_watermark,
            stamp_payloads=True,
            cache_pages=config.cache_pages,
            cache_policy=config.cache_policy)
        with KillSwitch(
                ctrl.array,
                kill_at=kill_at if index == kill_shard else None,
                tear=tear, bus=ctrl.events) as switch:
            try:
                executor.run(slices[index])
            except SimulatedPowerFailure:
                report.interrupted = True
        if index == kill_shard:
            report.ops_seen = switch.ops
    if not recover:
        return report

    # Independence is the point: each bank is rebuilt from its own
    # array with nothing but the shared (static) geometry.
    _, summaries, mismatches = recover_banks(
        [ctrl.array for ctrl in controllers], shard_config,
        oracles=oracles)
    report.mismatches = mismatches
    report.shards = [{
        "shard": entry["bank"],
        "mode": entry["mode"],
        "committed_pages": entry["committed_pages"],
        "mismatches": entry["mismatches"],
    } for entry in summaries]
    report.verified = True
    if record_to is not None:
        record_to.record_chaos_report(report)
    return report


def service_chaos_sweep(config: Optional[ServiceConfig] = None,
                        tenants: Optional[Sequence[TenantSpec]] = None,
                        duration_s: float = 0.0005,
                        kill_shard: int = 0, stride: int = 1,
                        tear: bool = False) -> List[ServiceChaosReport]:
    """Kill the same seeded service run at every ``stride``-th Flash
    operation of ``kill_shard``; every report should satisfy ``ok``."""
    return sweep_kill_points(
        partial(run_service_chaos, config, tenants, duration_s,
                kill_shard=kill_shard, tear=tear),
        stride, recover=False)


# ----------------------------------------------------------------------
# Redundancy drills: whole-bank loss under mirror / parity
# ----------------------------------------------------------------------


@dataclass
class RedundancyChaosReport:
    """Outcome of one whole-bank-loss drill (kill + degraded serving +
    post-mortem recovery + online rebuild + final verification)."""

    victim: int
    kill_at: Optional[int]
    tear: bool
    policy: str = ""
    placement: str = ""
    #: Flash operations the victim bank issued (the kill-point space
    #: when this was a dry run).
    ops_seen: int = 0
    #: Whether the kill fired mid-operation (False = the run outran it;
    #: the bank is then lost *cleanly* after the batch instead).
    interrupted: bool = False
    #: Logical writes the drill stamped (each with a distinct payload).
    stamped_writes: int = 0
    #: Scheduled reads whose bytes diverged from the expected model
    #: while the run was still serving (healthy or degraded).
    serving_mismatches: List[int] = field(default_factory=list)
    #: Logical pages unreadable or wrong *after* the bank loss, served
    #: from mirrors / parity reconstruction.
    degraded_mismatches: List[int] = field(default_factory=list)
    #: Pages checked in the post-kill degraded verification pass.
    degraded_pages_checked: int = 0
    #: Per-bank recovery summaries (the victim's dead array, rebuilt
    #: from Flash alone and compared to its commit oracle).
    shards: List[Dict] = field(default_factory=list)
    #: ``(bank, page)`` recovery mismatches against the commit oracle.
    recovery_mismatches: List[Tuple[int, int]] = field(
        default_factory=list)
    #: Probe reads served wrong while the rebuild was in flight.
    probe_mismatches: int = 0
    #: Replacement-bank slots repopulated by the online rebuild.
    rebuilt_pages: int = 0
    #: Result of the rebuild's peer-reconstruction verification
    #: (``None`` = rebuild phase skipped).
    rebuild_verified: Optional[bool] = None
    #: Pages wrong after the rebuilt bank returned to service.
    final_mismatches: List[int] = field(default_factory=list)
    verified: bool = False

    @property
    def ok(self) -> bool:
        return (self.verified
                and not self.serving_mismatches
                and not self.degraded_mismatches
                and not self.recovery_mismatches
                and not self.final_mismatches
                and self.probe_mismatches == 0
                and self.rebuild_verified is not False)


def _redundancy_config(config: Optional[ServiceConfig]) -> ServiceConfig:
    """The drill variant of a redundant service config."""
    base = config or ServiceConfig(num_shards=3, num_segments=4,
                                   pages_per_segment=16,
                                   redundancy="mirror")
    if base.redundancy == "none":
        raise ValueError(
            "the redundancy drill needs mirror or parity (policy "
            "'none' cannot survive a whole-bank loss)")
    return replace(base, store_data=True, prewarm_turnovers=0.0)


def run_redundancy_chaos(config: Optional[ServiceConfig] = None,
                         tenants: Optional[Sequence[TenantSpec]] = None,
                         duration_s: float = 0.0005,
                         victim: int = 0,
                         kill_at: Optional[int] = None,
                         tear: bool = False,
                         rebuild: bool = True) -> RedundancyChaosReport:
    """One whole-bank-loss drill against a redundant service.

    The deterministic tenant schedule is replayed through the service's
    payload-true direct-access path (``write_page`` maintains real
    mirror copies / XOR parity, which the cost-model executors do not),
    with a :class:`~repro.core.chaos.KillSwitch` armed on the victim
    bank's Flash array.  ``kill_at`` is 1-based over the victim's Flash
    operations; when it fires mid-operation the bank is declared dead
    on the spot, the interrupted logical write is re-issued through the
    degraded path, and the rest of the schedule keeps serving without
    the bank.  ``kill_at=None`` is the dry run sizing a sweep (no kill;
    returns ``ops_seen``); a ``kill_at`` past ``ops_seen`` models a
    *clean* whole-bank loss after the batch.

    After the loss the drill verifies, in order: **degraded serving**
    (every logical page reads its committed bytes from mirrors or
    parity reconstruction — :class:`~repro.service.redundancy.
    DegradedModeError` counts as a mismatch), **post-mortem recovery**
    (the victim's dead array alone rebuilds its committed prefix, via
    :func:`~repro.core.recovery.recover_banks` against the bank's
    commit oracle), **online rebuild** (a replacement bank is
    repopulated from peers while probe reads keep serving, then
    peer-verified), and **final state** (every page correct with all
    banks healthy again).  The report lands in the service's
    :meth:`~repro.service.frontend.EnvyService.health_report` via
    :meth:`~repro.service.frontend.EnvyService.record_chaos_report`.
    """
    config = _redundancy_config(config)
    config.validate()
    if not 0 <= victim < config.num_shards:
        raise IndexError(f"no bank {victim}")
    specs = list(tenants) if tenants else [
        TenantSpec("writer", rate_tps=2e6, write_fraction=0.9, skew=0.8)]
    service = EnvyService(config, specs)
    router = service.router
    page_bytes = config.page_bytes
    zeros = bytes(page_bytes)

    report = RedundancyChaosReport(victim=victim, kill_at=kill_at,
                                   tear=tear, policy=router.policy.name,
                                   placement=router.placement)

    # Materialise every bank in-process and arm its commit oracle; the
    # victim's oracle is what its dead array must recover to.
    oracles: List[Dict[int, Optional[bytes]]] = []
    for bank in range(config.num_shards):
        ctrl = service.shard(bank)
        ctrl.store.preserve_flushed_copies = True
        oracles.append(attach_commit_oracle(ctrl))
    generator = LoadGenerator(specs, router.num_pages, page_bytes,
                              seed=config.seed)
    schedule, _ = generator.generate(duration_s)

    def full_page(payload: Optional[bytes]) -> bytes:
        if payload is None:
            return zeros
        return payload + zeros[len(payload):]

    expected: Dict[int, bytes] = {}
    stamp = 0
    with KillSwitch(service.shard(victim).array, kill_at=kill_at,
                    tear=tear, bus=service.events) as switch:
        for _, _, _, is_write, page in schedule:
            if is_write:
                stamp += 1
                payload = stamp.to_bytes(_WORD, "little")
                try:
                    service.write_page(page, payload)
                except SimulatedPowerFailure:
                    report.interrupted = True
                    service.kill_bank(victim)
                    # Re-issue the torn logical write through the
                    # degraded path.  If the victim held its primary,
                    # nothing else changed before the cut (the primary
                    # is programmed first), so the write simply never
                    # happened; if the victim held a replica / the
                    # parity slot, the surviving copies already carry
                    # the new bytes and re-folding the identical delta
                    # is exact.
                    service.write_page(page, payload)
                expected[page] = payload
            elif service.read_page(page) != full_page(expected.get(page)):
                report.serving_mismatches.append(page)
    # A dead bank issues no further Flash operations, so the count
    # stands where the cut left it.
    report.ops_seen = switch.ops
    report.stamped_writes = stamp
    if not report.interrupted:
        if kill_at is None:
            # Dry run: size the kill-point space, verify healthy state.
            for page in range(router.num_pages):
                if (service.read_page(page)
                        != full_page(expected.get(page))):
                    report.final_mismatches.append(page)
            report.verified = True
            return report
        # The workload outran the kill point: lose the bank cleanly
        # after the batch instead (a clean cut must also be survivable).
        service.kill_bank(victim)

    # --- degraded serving: 100% of pages readable without the bank ---
    for page in range(router.num_pages):
        want = full_page(expected.get(page))
        try:
            got = service.read_page(page)
        except DegradedModeError:
            report.degraded_mismatches.append(page)
            continue
        if got != want:
            report.degraded_mismatches.append(page)
    report.degraded_pages_checked = router.num_pages

    # --- post-mortem: the dead array alone yields its committed prefix
    dead = service.dead_bank_controller(victim)
    _, summaries, mismatches = recover_banks(
        [dead.array], config.shard_config(), oracles=[oracles[victim]])
    entry = summaries[0]
    report.shards.append({
        "shard": victim,
        "mode": entry["mode"],
        "committed_pages": entry["committed_pages"],
        "mismatches": entry["mismatches"],
    })
    report.recovery_mismatches = [(victim, page)
                                  for _, page in mismatches]

    if rebuild:
        # --- online rebuild: repopulate a blank replacement from peers
        # while serving continues (probe reads interleave every step,
        # and a foreground write lands mid-rebuild to prove rebuilt
        # slots never go stale).
        scheduler = service.replace_bank(victim)
        probe_pages = sorted(expected)[:4] or [0]
        probe_writes = [0]

        def probe(sched) -> None:
            if probe_writes[0] == 0 and sched.position >= sched.total // 2:
                probe_writes[0] = 1
                mid_page = probe_pages[0]
                payload = (report.stamped_writes + 1).to_bytes(
                    _WORD, "little")
                service.write_page(mid_page, payload)
                expected[mid_page] = payload
            for page in probe_pages:
                if service.read_page(page) != full_page(
                        expected.get(page)):
                    report.probe_mismatches += 1

        report.rebuilt_pages = scheduler.run_to_completion(probe)
        try:
            scheduler.finish(verify=True)
            report.rebuild_verified = True
        except DegradedModeError:
            report.rebuild_verified = False

        # --- final state: every page correct, all banks healthy again
        for page in range(router.num_pages):
            if service.read_page(page) != full_page(expected.get(page)):
                report.final_mismatches.append(page)

    report.verified = True
    service.record_chaos_report(report)
    return report


def redundancy_chaos_sweep(config: Optional[ServiceConfig] = None,
                           tenants: Optional[Sequence[TenantSpec]] = None,
                           duration_s: float = 0.0005,
                           victim: int = 0, stride: int = 1,
                           tear: bool = False,
                           rebuild: bool = True
                           ) -> List[RedundancyChaosReport]:
    """Lose the same bank at every ``stride``-th of its Flash
    operations (plus one clean post-batch loss); every report should
    satisfy ``ok``."""
    return sweep_kill_points(
        partial(run_redundancy_chaos, config, tenants, duration_s,
                victim=victim, tear=tear, rebuild=rebuild),
        stride, clean_loss=True)
