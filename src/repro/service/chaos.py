"""Service-level chaos: kill one bank mid-batch, recover every bank.

Both drills return the core harness's one
:class:`~repro.core.chaos.ChaosReport`; sweep either with
:func:`~repro.core.chaos.sweep_kill_points`.

:func:`run_service_chaos` is :func:`~repro.core.chaos.drill` over the
shards: they serve the multi-tenant schedule, routed by the service's
router and executed by :class:`~repro.service.executor.ShardExecutor`
with stamped payloads; the power dies on *one* shard in the middle of a
coalesced write batch, and each bank's Flash array alone must rebuild
that bank's committed state — shards share nothing, and neither does
their recovery.

:func:`run_redundancy_chaos`: the victim bank is not merely
power-cycled but *lost* — declared dead mid-batch with its SRAM gone —
and the service must keep serving every logical page from mirrors or
parity reconstruction, recover the dead array's committed prefix post
mortem, rebuild a blank replacement online from its peers, and return
to full health with every byte intact.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..core.chaos import ChaosReport, KillSwitch, attach_commit_oracle, drill
from ..core.controller import EnvyController
from ..core.recovery import SimulatedPowerFailure
from .executor import ShardExecutor
from .frontend import EnvyService, ServiceConfig
from .loadgen import LoadGenerator
from .redundancy import DegradedModeError
from .tenant import TenantSpec

__all__ = ["run_service_chaos", "run_redundancy_chaos"]

#: Stamp width of the drills' write payloads, matching the executor's.
_WORD = 8

#: The drills' default tenant.  Its rate leaves idle gaps between
#: arrivals: the flusher and cleaner need background time to issue the
#: Flash programs and erases that make up the kill-point space.
_WRITER = TenantSpec("writer", rate_tps=2e6, write_fraction=0.9, skew=0.8)


def _schedule(config: ServiceConfig, tenants, duration_s: float):
    """The drill's tenants and their deterministic service schedule."""
    specs = list(tenants) if tenants else [_WRITER]
    generator = LoadGenerator(specs, config.make_router().num_pages,
                              config.page_bytes, seed=config.seed)
    return specs, generator.generate(duration_s)[0]


def run_service_chaos(config: Optional[ServiceConfig] = None,
                      tenants: Optional[Sequence[TenantSpec]] = None,
                      duration_s: float = 0.0005,
                      kill_shard: int = 0,
                      kill_at: Optional[int] = None,
                      tear: bool = False,
                      recover: bool = True,
                      record_to: Optional[EnvyService] = None
                      ) -> ChaosReport:
    """One drill: service run, kill one shard, recover all shards.

    The schedule for ``(config.seed, tenants, duration_s)`` is split
    across shards by the config's router and replayed on data-bearing,
    un-prewarmed shards (committed state starts empty).  ``kill_at``
    is 1-based over shard ``kill_shard``'s Flash operations (see
    :func:`~repro.core.chaos.drill`).  ``record_to`` folds the
    per-shard recovery outcome into that service's
    :meth:`~repro.service.frontend.EnvyService.health_report`.
    """
    config = replace(config or ServiceConfig(num_shards=2, num_segments=4,
                                             pages_per_segment=16),
                     store_data=True, prewarm_turnovers=0.0)
    config.validate()
    specs, schedule = _schedule(config, tenants, duration_s)
    router = config.make_router()
    slices: List[list] = [[] for _ in range(config.num_shards)]
    for arrival, tenant, seq, is_write, page in schedule:
        shard, local = router.route(page)
        slices[shard].append((arrival, tenant, seq, is_write, local))
    tenant_names = [spec.name for spec in specs]

    def run_shard(index: int, ctrl: EnvyController) -> None:
        ShardExecutor(ctrl, index, tenant_names,
                      queue_capacity=config.queue_capacity,
                      soft_watermark=config.soft_watermark,
                      hard_watermark=config.hard_watermark,
                      stamp_payloads=True,
                      cache_pages=config.cache_pages,
                      cache_policy=config.cache_policy
                      ).run(slices[index])

    shard_config = config.shard_config()
    report = drill([EnvyController(shard_config, store_data=True)
                    for _ in range(config.num_shards)],
                   kill_shard, run_shard, kill_at, tear, recover)
    if recover and record_to is not None:
        record_to.record_chaos_report(report)
    return report


def run_redundancy_chaos(config: Optional[ServiceConfig] = None,
                         tenants: Optional[Sequence[TenantSpec]] = None,
                         duration_s: float = 0.0005,
                         victim: int = 0,
                         kill_at: Optional[int] = None,
                         tear: bool = False,
                         rebuild: bool = True) -> ChaosReport:
    """One whole-bank-loss drill against a redundant service.

    The schedule is replayed through the service's payload-true
    direct-access path (``write_page`` maintains real mirror copies /
    XOR parity, which the cost-model executors do not), with a
    :class:`~repro.core.chaos.KillSwitch` armed on the victim bank.
    When ``kill_at`` fires the bank is declared dead on the spot, the
    interrupted logical write is re-issued through the degraded path,
    and the rest of the schedule keeps serving without the bank.
    ``kill_at=None`` is the dry run sizing a sweep; a ``kill_at`` past
    ``ops_seen`` models a *clean* whole-bank loss after the batch.

    Each pass records the pages it finds wrong — unservable ones
    included — under ``report.checks``: ``serving`` (scheduled reads),
    ``degraded`` (every page, served from mirrors or parity after the
    loss), ``probe`` (reads interleaved with the online rebuild, one
    entry per wrong read) and ``final`` (every page with all banks
    healthy again).  Post mortem, the victim's dead array alone must
    recover its committed prefix (:meth:`~repro.core.chaos.ChaosReport.
    recover`).  ``report.counts`` holds the policy, placement and phase
    tallies; the report lands in the service's ``health_report()``.
    """
    config = config or ServiceConfig(num_shards=3, num_segments=4,
                                     pages_per_segment=16,
                                     redundancy="mirror")
    if config.redundancy == "none":
        raise ValueError(
            "the redundancy drill needs mirror or parity (policy "
            "'none' cannot survive a whole-bank loss)")
    config = replace(config, store_data=True, prewarm_turnovers=0.0)
    config.validate()
    if not 0 <= victim < config.num_shards:
        raise IndexError(f"no bank {victim}")
    specs, schedule = _schedule(config, tenants, duration_s)
    service = EnvyService(config, specs)
    router = service.router
    zeros = bytes(config.page_bytes)
    report = ChaosReport(victim=victim, kill_at=kill_at, tear=tear,
                         checks={name: [] for name in (
                             "serving", "degraded", "probe", "final")},
                         counts=dict(policy=router.policy.name,
                                     placement=router.placement,
                                     stamped_writes=0,
                                     degraded_pages_checked=0,
                                     rebuilt_pages=0,
                                     rebuild_verified=None))

    # Materialise every bank in-process and arm its commit oracle; the
    # victim's oracle is what its dead array must recover to.
    oracles: List[Dict[int, bytes]] = []
    for bank in range(config.num_shards):
        ctrl = service.shard(bank)
        ctrl.store.preserve_flushed_copies = True
        oracles.append(attach_commit_oracle(ctrl))
    expected: Dict[int, bytes] = {}

    def check(name: str, pages) -> None:
        """Read ``pages``; record each one not serving its bytes."""
        for page in pages:
            want = expected.get(page, b"")
            try:
                got = service.read_page(page)
            except DegradedModeError:
                got = None
            if got != want + zeros[len(want):]:
                report.checks[name].append(page)

    stamp = 0
    with KillSwitch(service.shard(victim).array, kill_at=kill_at,
                    tear=tear, bus=service.events) as switch:
        for _, _, _, is_write, page in schedule:
            if not is_write:
                check("serving", [page])
                continue
            stamp += 1
            payload = stamp.to_bytes(_WORD, "little")
            try:
                service.write_page(page, payload)
            except SimulatedPowerFailure:
                report.interrupted = True
                service.kill_bank(victim)
                # Re-issue the torn logical write through the degraded
                # path.  If the victim held its primary, nothing else
                # changed before the cut (the primary is programmed
                # first), so the write simply never happened; if the
                # victim held a replica / the parity slot, the
                # surviving copies already carry the new bytes and
                # re-folding the identical delta is exact.
                service.write_page(page, payload)
            expected[page] = payload
    # A dead bank issues no further Flash operations, so the count
    # stands where the cut left it.
    report.ops_seen = switch.ops
    report.committed_pages = len(oracles[victim])
    report.counts["stamped_writes"] = stamp
    all_pages = range(router.num_pages)
    if kill_at is None:
        # Dry run: size the kill-point space, verify healthy state.
        check("final", all_pages)
        report.verified = True
        return report
    if not report.interrupted:
        # The workload outran the kill point: lose the bank cleanly
        # after the batch instead (a clean cut must also be survivable).
        service.kill_bank(victim)

    check("degraded", all_pages)
    report.counts["degraded_pages_checked"] = router.num_pages
    report.recover([service.dead_bank_controller(victim).array],
                   config.shard_config(), [oracles[victim]],
                   banks=[victim])
    if rebuild:
        # Online rebuild from peers while probe reads interleave every
        # step, and a foreground write lands mid-rebuild to prove
        # rebuilt slots never go stale.
        scheduler = service.replace_bank(victim)
        probe_pages = sorted(expected)[:4] or [0]
        probe_writes = [0]

        def probe(sched) -> None:
            if probe_writes[0] == 0 and sched.position >= sched.total // 2:
                probe_writes[0] = 1
                payload = (stamp + 1).to_bytes(_WORD, "little")
                service.write_page(probe_pages[0], payload)
                expected[probe_pages[0]] = payload
            check("probe", probe_pages)

        report.counts["rebuilt_pages"] = scheduler.run_to_completion(probe)
        try:
            scheduler.finish(verify=True)
            report.counts["rebuild_verified"] = True
        except DegradedModeError:
            report.counts["rebuild_verified"] = False
        check("final", all_pages)
    report.verified = True
    service.record_chaos_report(report)
    return report
