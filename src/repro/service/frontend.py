"""The eNVy storage service: many banks, many tenants, one front door.

:class:`EnvyService` turns the single-controller library into a
concurrent storage *service*: N independent eNVy shards (one controller
— bus, SRAM buffer, page table, cleaner — each) behind a
:class:`~repro.service.shard.ShardRouter`, fed by the deterministic
:class:`~repro.service.loadgen.LoadGenerator` and guarded by two layers
of admission control (per-tenant token buckets at the front door,
per-shard queue bounds and cleaner-debt backpressure at each bank).

Execution model — determinism before everything
-----------------------------------------------

Every run — plain, mirrored, parity, remapped, with a dead or a
rebuilding bank, traced, bus-subscribed — is a one-way pipeline, one
window (an arrival-time range of the schedule,
:meth:`LoadGenerator.stream`) at a time:

1. **Generate** (in-process, serial): the load generator draws every
   tenant, rate limits applied, then hands out a window at a time.  The
   schedule is a pure function of ``(tenants, duration, seed)``.
2. **Route + execute**: the window is partitioned by shard — expanded
   first into its replica, parity, degraded and rebuild rows when the
   routing asks for them; what that carries across windows (counters,
   rebuild cursors) belongs to the run — and each slice is fed to that
   shard's :class:`~repro.service.executor.ShardExecutor` (live in this
   process for a serial run; collected and shipped whole through
   :func:`~repro.perf.run_sweep` for a parallel one).  Results merge in
   shard order by exact histogram addition.

Nothing flows back from stage 2 and shards never interact, so the
service-level metrics — every admission-control rejection in
:meth:`EnvyService.health_report` included — are identical for any
``jobs`` setting (``ENVY_JOBS`` honoured), any window size and reruns.

The service front-end publishes ``service.*`` events on its own
:class:`~repro.obs.events.EventBus` (schedule-time throttling, per-shard
completion summaries); per-request shard events (``service.reject``,
``service.throttle``, ``service.batch``) appear on each shard
controller's bus when shards are driven in-process (see
:class:`~repro.service.executor.ShardExecutor`).

Direct access — transactions stay on one shard
----------------------------------------------

For interactive use the service can materialise its shards
in-process: :meth:`~EnvyService.read_page` / :meth:`~EnvyService.
write_page` route single-page operations to the shard controllers (no
cache: the DRAM tier is the executors' timing device).  They read and
program exactly the slots :func:`~repro.service.redundancy.io_plan`
names, the slots a scheduled run charges for the same request.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.chaos import ChaosReport
from ..core.config import EnvyConfig
from ..core.controller import EnvyController
from ..obs.events import (ADMISSION_DECISION, REDUNDANCY_DEGRADED,
                          REDUNDANCY_KILL, REDUNDANCY_REBALANCE,
                          REDUNDANCY_REBUILD, REDUNDANCY_REPLICA,
                          SECURITY_QUARANTINE, SECURITY_REMAP, SERVICE_RUN,
                          SERVICE_SHARD, EventBus)
from ..obs.slo import SLOTracker
from ..obs.trace import TraceReport, merge_shard_traces
from ..perf.sweep import derive_seed, resolve_jobs, run_sweep
from .admission import AdmissionController
from .adversary import AttackDetector, merge_shard_wear
from .cache import DRAM_READ_NS
from .executor import shard_executor
from .loadgen import LoadGenerator, Request
from .redundancy import (BANK_DEAD, BANK_HEALTHY, BANK_REBUILDING,
                         DegradedModeError, RebuildScheduler, Slot, io_plan,
                         make_policy, plan_rebalance)
from .shard import ShardRouter
from .tenant import TenantSpec, TenantStats, field_types, merge_columns

__all__ = ["ServiceConfig", "ServiceStats", "EnvyService",
]

#: Pseudo-tenant names carrying redundancy / rebuild overhead traffic
#: through the shard executors without polluting tenant accounting.
_REDUNDANCY_TENANT = "__redundancy__"
_REBUILD_TENANT = "__rebuild__"


#: Dotted worker name resolved inside each sweep process.
_SHARD_WORKER = "repro.service.executor:service_shard_point"

#: Canonical ``health_report`` key order: these sections first (in this
#: order, when present), every other key sorted alphabetically after.
#: The report's shape therefore never depends on the order in which
#: state accumulated (fresh service vs. post-recovery vs. post-detect).
_REPORT_HEAD = ("num_shards", "pages_per_shard", "service_pages",
                "tenants", "seed", "redundancy", "security", "cache",
                "admission", "slo", "recovery", "last_run")


def _canonical_report(report: dict) -> dict:
    ordered = {key: report[key] for key in _REPORT_HEAD if key in report}
    for key in sorted(report):
        if key not in ordered:
            ordered[key] = report[key]
    return ordered


@dataclass(frozen=True)
class ServiceConfig:
    """Geometry and admission knobs of a sharded eNVy service.

    Each shard is an independent bank with ``num_segments`` segments of
    ``pages_per_segment`` pages and its own segment-sized SRAM write
    buffer; the service address space is the striped union of the
    shards' logical pages.  See docs/SERVICE.md for knob guidance.
    """

    num_shards: int = 4
    num_segments: int = 32
    pages_per_segment: int = 64
    utilization: float = 0.80
    policy: str = "hybrid"
    page_bytes: int = 256
    #: Requests a shard will hold (waiting + in service) before
    #: rejecting new arrivals.
    queue_capacity: int = 256
    #: Write-buffer occupancy (fraction) past which writes are delayed.
    soft_watermark: float = 0.85
    #: Occupancy at which writes are shed outright (cleaner has lost).
    hard_watermark: float = 0.97
    #: Free-space turnovers of untimed prewarm per shard (0 = none).
    prewarm_turnovers: float = 3.0
    #: Shards keep page payloads (needed for transactions and chaos).
    store_data: bool = False
    seed: int = 0
    #: Cross-bank redundancy: ``none``, ``mirror``, ``mirror:<k>`` or
    #: ``parity`` (see :mod:`repro.service.redundancy`).
    redundancy: str = "none"
    #: Page placement: ``striped`` (default) or ``ranged`` (contiguous
    #: per-bank ranges; pairs with hot-page rebalancing).
    placement: str = "striped"
    #: Queue-full rejections a request may absorb as deferred retries
    #: before being surfaced to the tenant (0 = off).
    retry_limit: int = 0
    #: Base backoff of a deferred retry; doubles per attempt.
    retry_backoff_ns: int = 4000
    #: Copy rate charged into runs while a bank rebuilds (pages per
    #: simulated second) — the rebuild/foreground interference knob.
    rebuild_rate_pps: float = 200_000.0
    #: Per-tenant wear attribution (repro.service.adversary): shards
    #: track which tenant's writes wear which segments, how much
    #: cleaning each tenant induces and how long its pages squat in
    #: SRAM.  Observational only — metrics are bit-identical on or off.
    attribute_wear: bool = False
    #: Service-wide default cap on admitted writes per (tenant, page);
    #: a TenantSpec.wear_budget overrides it per tenant.  None = off.
    wear_budget: Optional[int] = None
    #: Token-bucket rate a quarantined tenant is degraded to.
    quarantine_tps: float = 50_000.0
    #: DRAM read-cache capacity *per shard*, in pages (0 = no cache
    #: tier).  Hits are served at :data:`~repro.core.costmodel.
    #: DRAM_READ_NS` without crossing the eNVy bus.
    cache_pages: int = 0
    #: Per-tenant occupancy cap as a fraction of one shard's cache
    #: (1.0 = uncapped) — the squat defence: a tenant cycling a huge
    #: footprint evicts its own pages, never the whole tier.
    cache_tenant_cap: float = 1.0
    #: Closed-loop admission control: promote / throttle / shed
    #: tenants from their observed SLO burn between runs
    #: (:class:`~repro.service.admission.AdmissionController`).
    admission: bool = False

    def validate(self) -> None:
        if self.num_shards < 1:
            raise ValueError("need at least one shard")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if not 0.0 < self.soft_watermark <= self.hard_watermark <= 1.0:
            raise ValueError("watermarks must satisfy 0 < soft <= hard <= 1")
        if self.retry_limit < 0:
            raise ValueError("retry_limit cannot be negative")
        if self.retry_limit and self.retry_backoff_ns < 1:
            raise ValueError("retries need a positive backoff")
        if self.rebuild_rate_pps <= 0:
            raise ValueError("rebuild_rate_pps must be positive")
        if self.wear_budget is not None and self.wear_budget < 1:
            raise ValueError("wear_budget must allow at least one write")
        if not 0 < self.quarantine_tps < math.inf:
            raise ValueError("quarantine_tps must be positive and finite")
        if self.cache_pages < 0:
            raise ValueError("cache_pages cannot be negative")
        if not 0.0 < self.cache_tenant_cap <= 1.0:
            raise ValueError("cache_tenant_cap must be in (0, 1]")
        # Raises on malformed redundancy specs / placements, and on
        # geometry the policy cannot cover (validated by the router).
        self.make_router()
        # Shard geometry is validated by EnvyConfig.scaled below.
        self.shard_config()

    def shard_config(self) -> EnvyConfig:
        """The :class:`EnvyConfig` every shard is built from."""
        return EnvyConfig.scaled(
            num_segments=self.num_segments,
            pages_per_segment=self.pages_per_segment,
            page_bytes=self.page_bytes,
            max_utilization=self.utilization,
            cleaning_policy=self.policy)

    @property
    def pages_per_shard(self) -> int:
        return self.shard_config().logical_pages

    def make_router(self) -> ShardRouter:
        return ShardRouter(self.num_shards, self.pages_per_shard,
                           self.page_bytes, placement=self.placement,
                           policy=make_policy(self.redundancy))


@dataclass
class ServiceStats:
    """Service-level outcome of one :meth:`EnvyService.run`."""

    num_shards: int
    duration_s: float
    requests_offered: int = 0
    requests_throttled: int = 0
    requests_admitted: int = 0
    requests_rejected_queue: int = 0
    requests_rejected_shed: int = 0
    accesses_served: int = 0
    #: Makespan: the slowest shard's final simulated clock.
    simulated_ns: int = 1
    #: Queue-full rejections absorbed as deferred retries.
    requests_retried: int = 0
    #: Tenant reads served from a mirror / parity reconstruction
    #: because the primary bank was dead.
    degraded_reads: int = 0
    #: Tenant writes whose primary bank was dead (redirected).
    degraded_writes: int = 0
    #: Extra replica/parity programs and reconstruction reads charged
    #: to the redundancy overhead pseudo-tenant.
    replica_accesses: int = 0
    #: Rebuild copy traffic (peer reads + replacement programs).
    rebuild_accesses: int = 0
    #: Writes rejected at admission because the tenant exhausted its
    #: per-page wear budget.
    requests_rejected_wear: int = 0
    #: DRAM cache tier outcome, summed over shards (all zero when the
    #: run had no cache).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    shards: List[Dict] = field(default_factory=list)
    #: Service-wide per-segment program counts ("s<bank>:p<phys>" keys;
    #: populated only when the run attributed wear).
    segment_programs: Dict[str, int] = field(default_factory=dict)

    @property
    def requests_rejected(self) -> int:
        return self.requests_rejected_queue + self.requests_rejected_shed

    @property
    def accesses_per_simulated_s(self) -> float:
        """Served accesses per simulated second (the scaling metric)."""
        return self.accesses_served * 1e9 / max(1, self.simulated_ns)

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    def as_dict(self) -> dict:
        """Flat, JSON-serialisable, machine-independent summary.

        Two runs with the same seed (any ``jobs``) produce identical
        dicts — the determinism tests compare exactly this.
        """
        summary = {name: getattr(self, name)
                   for name, kind in field_types(type(self)).items()
                   if kind in (int, float)}
        summary.update(
            accesses_per_simulated_s=round(self.accesses_per_simulated_s, 1),
            cache_hit_rate=round(self.cache_hit_rate, 6),
            tenants={name: stats.as_dict()
                     for name, stats in self.tenants.items()},
            shards=[dict(shard) for shard in self.shards])
        return summary


class EnvyService:
    """A sharded, multi-tenant storage service over eNVy banks."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 tenants: Optional[Sequence[TenantSpec]] = None) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        self.tenants = list(tenants) if tenants else [TenantSpec("default")]
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        self.router = self.config.make_router()
        #: Front-end event bus (``service.*`` marks; dormant until
        #: subscribed, like every bus in the system).
        self.events = EventBus()
        #: Stats of the most recent :meth:`run` (for health_report).
        self.last_stats: Optional[ServiceStats] = None
        # In-process shard controllers for direct access; built lazily.
        self._shards: Optional[List[EnvyController]] = None
        # Redundancy layer state: per-bank lifecycle, dead controllers
        # kept for post-mortem recovery, live rebuild schedulers, and
        # the expansion bookkeeping of the most recent partition.
        self._bank_states: List[str] = (
            [BANK_HEALTHY] * self.router.num_shards)
        self._dead_shards: Dict[int, EnvyController] = {}
        self._rebuilds: Dict[int, RebuildScheduler] = {}
        self._last_expansion: Optional[Dict[str, int]] = None
        # What the expander carries from window to window of one run()
        # (counters, rebuild cursors); None outside a run, so a bare
        # partition() starts from zero.
        self._run_expansion: Optional[dict] = None
        self._last_chaos: Optional[dict] = None
        #: Quarantined tenants: name -> degraded token-bucket rate,
        #: applied at schedule time by the load generator.
        self.quarantined: Dict[str, float] = {}
        #: Most recent AttackDetector report (health_report: security).
        self._last_security: Optional[dict] = None
        #: Per-tenant SLO burn tracking, fed once per :meth:`run`.
        self.slo = SLOTracker(self.tenants)
        #: Closed-loop admission controller (None when disabled): fed
        #: after every run, its rate overrides and cache-tier
        #: membership shape the next run's schedule and shard points.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(
                self.tenants,
                cache_available=self.config.cache_pages > 0)
            if self.config.admission else None)
        #: Request trace of the most recent ``run(trace=True)``.
        self.last_trace: Optional[TraceReport] = None
        self._last_rids: Optional[List[List[int]]] = None
        self._generator: Optional[LoadGenerator] = None

    def _load_generator(self) -> LoadGenerator:
        """The service's one load generator, built (and its tenants
        validated) on first use; it keeps the last run's draws."""
        if self._generator is None:
            self._generator = LoadGenerator(
                self.tenants, self.router.num_pages, self.config.page_bytes,
                seed=self.config.seed)
        return self._generator

    # ------------------------------------------------------------------
    # Service runs (schedule -> shard fan-out -> merge)
    # ------------------------------------------------------------------

    def partition(self, requests: Sequence[Request],
                  with_rids: bool = False,
                  rid_base: int = 0) -> List[List[Request]]:
        """Split the schedule (or one window of it, whose first row is
        request ``rid_base``) into per-shard slices with local pages.

        A read, or a one-slot write, whose primary bank is healthy costs
        two reads of the router's slot table.  The rest expand into
        their placement set (replica programs, parity maintenance,
        degraded redirections), an active rebuild adds its copy traffic,
        and overhead rows go to pseudo tenants: every extra flash
        operation is charged through the same cost model as foreground
        traffic.  A page outside the service raises ``IndexError``.

        ``with_rids`` threads request ids (the request's index in the
        merged schedule) through the split: every row a logical request
        expands into shares its rid — that is what lets the trace link
        a request's replica/parity spans across shard tracks — and the
        per-shard rid lists land in ``self._last_rids`` aligned with
        the returned slices.  Rebuild copy rows get unique negative
        rids (they serve no foreground request).

        Inside :meth:`run` the expansion counters and rebuild cursors
        carry from window to window; called on its own, every call
        starts from zero and charges no rebuild traffic.
        """
        router = self.router
        banks, locals_ = router.slot_table()
        slices: List[List[Request]] = [[] for _ in range(router.num_shards)]
        # A healthy bank's rows append straight to its slice; None sends
        # them to the expander (a sick bank, or rids to thread).
        targets = [entry.append if state == BANK_HEALTHY and not with_rids
                   else None
                   for entry, state in zip(slices, self._bank_states)]
        fans_out = router.policy.write_fanout > 1
        # Outside a run: fresh counters and no rebuild to charge.
        run = self._run_expansion or self._begin_expansion(0.0)
        expand = self._expander(slices, run["counters"])
        rids = count(rid_base)
        for arrival, tenant, seq, is_write, page in requests:
            try:
                target = targets[banks[page]]
            except IndexError:
                target = None      # past the table: the expander raises
            if target is None or page < 0 or (is_write and fans_out):
                # rid rides as the last tuple element so a later sort
                # co-sorts rows and rids; stripped before dispatch.
                expand(arrival, tenant, seq, is_write, page,
                       (next(rids),) if with_rids else ())
            else:
                target((arrival, tenant, seq, is_write, locals_[page]))

        if run["cursors"]:
            self._inject_rebuild(
                slices, run, requests[-1][0] if requests else None,
                with_rids)
            # Sorting is a property of the run, not of the window: a run
            # that charges a rebuild sorts every slice of every window
            # (what one sort of the whole slice did), any other run none.
            for entry in slices:
                entry.sort()
        if with_rids:
            self._last_rids = [[row[-1] for row in entry]
                               for entry in slices]
            for index, entry in enumerate(slices):
                slices[index] = [row[:-1] for row in entry]
        else:
            self._last_rids = None
        self._last_expansion = run["counters"]
        return slices

    def _expander(self, slices: List[List[Request]],
                  counters: Dict[str, int]):
        """``expand(arrival, tenant, seq, is_write, page, tail)`` appends
        the rows a request that does not simply route to a healthy
        primary becomes, each ending in ``tail``; ``counters`` tallies."""
        router = self.router
        states = self._bank_states
        pseudo_red = len(self.tenants)       # __redundancy__
        bus = self.events

        def expand(arrival: int, tenant: int, seq: int, is_write: bool,
                   page: int, tail: tuple) -> None:
            reads, programs, degraded = io_plan(router, states, page,
                                                is_write)
            if degraded:
                source = "write" if is_write else "read"
                counters[f"degraded_{source}s"] += 1
                self._mark_degraded(page, source)
            counters["replica_accesses"] += len(reads) + len(programs) - 1
            # The tenant owns a read's first read row or a write's first
            # program row; the rest is redundancy overhead.
            owner = pseudo_red if is_write else tenant
            for bank, local in reads:
                slices[bank].append((arrival, owner, seq, False, local)
                                    + tail)
                owner = pseudo_red
            owner = tenant
            for bank, local in programs:
                if owner == pseudo_red and bus.active:
                    bus.mark(REDUNDANCY_REPLICA,
                             {"bank": bank, "kind": "program"})
                slices[bank].append((arrival, owner, seq, True, local)
                                    + tail)
                owner = pseudo_red

        return expand

    def _begin_expansion(self, duration_s: float) -> dict:
        """What one run's expansion carries across its windows: the
        counters, and a ``[bank, scheduler, sources, entries taken, next
        rid]`` cursor per bank whose rebuild the run charges at
        ``rebuild_rate_pps`` (``sources``: each entry's the run may
        take, decided once).  Rebuild rows serve no foreground request:
        unique negative rids, numbered bank by bank, keep them out of
        the trace's cross-shard flow links."""
        gap_ns = max(1, int(1e9 / self.config.rebuild_rate_pps))
        budget = int(duration_s * 1e9) // gap_ns
        cursors, rid = [], -1
        for bank, scheduler in sorted(self._rebuilds.items()):
            if scheduler.done or not budget:
                continue
            start = scheduler.position
            sources = [scheduler.sources(entry)
                       for entry in scheduler.plan[start:start + budget]]
            cursors.append([bank, scheduler, sources, 0, rid])
            rid -= sum(len(slots) + 1 for slots in sources)
        return {"counters": {"degraded_reads": 0, "degraded_writes": 0,
                             "replica_accesses": 0, "rebuild_accesses": 0},
                "gap_ns": gap_ns, "budget": budget, "cursors": cursors}

    def _inject_rebuild(self, slices: List[List[Request]], run: dict,
                        until_ns: Optional[int],
                        with_rids: bool = False) -> None:
        """Charge into the slices the rebuild copy rows due by
        ``until_ns`` (``None``: the rest of the run's budget, and the
        one ``REDUNDANCY_REBUILD`` mark per bank with the run totals)."""
        gap_ns, due = run["gap_ns"], run["budget"]
        if until_ns is not None:
            due = min(due, until_ns // gap_ns + 1)
        counters = run["counters"]
        pseudo_reb = len(self.tenants) + 1   # __rebuild__
        bus = self.events
        for cursor in run["cursors"]:
            bank, scheduler, sources, taken, rid = cursor
            entries = scheduler.take(due - taken)
            for index, entry in enumerate(entries, taken):
                arrival = index * gap_ns
                rows = [(src_bank, (arrival, pseudo_reb, index, False,
                                    src_local))
                        for src_bank, src_local in sources[index]]
                rows.append((bank, (arrival, pseudo_reb, index, True,
                                    entry["local"])))
                counters["rebuild_accesses"] += len(rows)
                for row_bank, row in rows:
                    if with_rids:
                        row += (rid,)
                        rid -= 1
                    slices[row_bank].append(row)
            cursor[3:] = (taken + len(entries), rid)
            if until_ns is None and bus.active:
                bus.mark(REDUNDANCY_REBUILD,
                         {"bank": bank, "pages": cursor[3],
                          "done": scheduler.position,
                          "total": scheduler.total})

    def run(self, duration_s: float,
            jobs: Optional[int] = None,
            trace: bool = False) -> ServiceStats:
        """Serve ``duration_s`` simulated seconds of tenant traffic.

        ``jobs`` fans the shards out across worker processes (explicit
        value > ``ENVY_JOBS`` > CPU count); results are identical for
        every setting.

        ``trace`` records every request's span tree and exact critical-
        path decomposition (see :mod:`repro.obs.trace`); the merged
        :class:`~repro.obs.trace.TraceReport` lands in
        :attr:`last_trace`.  Tracing is observational — a traced run's
        metrics are bit-identical to an untraced one.
        """
        overrides: Dict[str, float] = dict(self.quarantined)
        if self.admission is not None:
            # Closed-loop throttle/shed rates merge with quarantine by
            # min(): neither layer ever relaxes the other's decision.
            for name, rate in self.admission.rate_overrides().items():
                overrides[name] = min(rate, overrides.get(name, rate))
        bus = self.events
        if bus.active:
            # First service event of the run, marked before the schedule
            # is drawn: the admitted count is in
            # ServiceStats.requests_admitted.
            bus.mark(SERVICE_RUN, {"shards": self.router.num_shards,
                                   "tenants": len(self.tenants)})
        windows, accounting = self._load_generator().stream(duration_s,
                                                             overrides)
        inputs = self.executor_inputs()
        pseudo = len(inputs["tenant_names"]) - len(self.tenants)
        num_shards = self.router.num_shards
        points = [dict(config=self.config, shard_index=index, inputs=inputs,
                       trace=trace, requests=[], rids=[] if trace else None)
                  for index in range(num_shards)]
        stats = ServiceStats(num_shards=num_shards, duration_s=duration_s)
        tenant_stats = [TenantStats(spec.name) for spec in self.tenants]
        stats.tenants = {tstats.name: tstats for tstats in tenant_stats}
        latency = [(tstats.read_latency, tstats.write_latency)
                   for tstats in tenant_stats]
        # A serial run feeds live executors, which record into these
        # histograms; a parallel one collects the slices: shipping one
        # to another process needs it whole.
        live = min(resolve_jobs(jobs), num_shards) == 1
        if live:
            executors = [shard_executor(point) for point in points]
            for executor in executors:
                # Pseudo-tenants' rows are counted, never recorded.
                executor.start(latency + [None] * pseudo)
        admitted = 0
        run = self._run_expansion = self._begin_expansion(duration_s)
        # Rebuild copy rows due after the last arrival ride in one more,
        # empty, window.
        tail = [()] if run["cursors"] else []
        try:
            for window in chain(windows, tail):
                slices = self.partition(window, with_rids=trace,
                                        rid_base=admitted)
                admitted += len(window)
                for shard, rows in enumerate(slices):
                    rids = self._last_rids[shard] if trace else None
                    if live:
                        executors[shard].feed(rows, rids)
                    else:
                        points[shard]["requests"] += rows
                        if trace:
                            points[shard]["rids"] += rids
                del window, slices, rows, rids  # peak: one window, not two
        finally:
            self._run_expansion = None
        if live:
            results = [executor.finish() for executor in executors]
        else:
            results = run_sweep(_SHARD_WORKER, points, jobs=jobs)
            # The one histogram merge left: the workers' pairs.
            for result in results:
                for (reads, writes), (read_hist, write_hist) in zip(
                        latency, result.pop("latency")):
                    reads.merge(read_hist)
                    writes.merge(write_hist)

        for tstats in tenant_stats:
            counts = accounting[tstats.name]
            tstats.offered = counts["offered"]
            tstats.throttled = counts["throttled"]
            stats.requests_offered += tstats.offered
            stats.requests_throttled += tstats.throttled
        stats.requests_admitted = admitted
        real = len(tenant_stats)
        merge_columns(tenant_stats, [result["columns"] for result in results])
        for shard_result in results:
            columns = shard_result["columns"]
            merge_shard_wear(shard_result, self.router, tenant_stats,
                             stats.segment_programs)
            stats.requests_rejected_queue += shard_result["rejected_queue"]
            stats.requests_rejected_shed += shard_result["rejected_shed"]
            stats.requests_retried += shard_result["retried"]
            stats.requests_rejected_wear += shard_result.get(
                "rejected_wear", 0)
            if shard_result["clock_ns"] > stats.simulated_ns:
                stats.simulated_ns = shard_result["clock_ns"]
            summary = {key: shard_result[key]
                       for key in ("shard", "clock_ns", "rejected_queue",
                                   "rejected_shed", "retried", "batches",
                                   "max_batch_pages", "coalesced_writes",
                                   "flushes", "clean_copies", "erases",
                                   "wear_swaps")}
            reads, writes = columns["reads"], columns["writes"]
            summary["accesses"] = sum(reads[:real]) + sum(writes[:real])
            summary["overhead_accesses"] = (sum(reads[real:])
                                            + sum(writes[real:]))
            stats.accesses_served += summary["accesses"]
            cache_summary = shard_result.get("cache")
            if cache_summary is not None:
                stats.cache_hits += cache_summary["hits"]
                stats.cache_misses += cache_summary["misses"]
                stats.cache_evictions += cache_summary["evictions"]
                stats.cache_invalidations += \
                    cache_summary["invalidations"]
                summary["cache_hits"] = cache_summary["hits"]
                summary["cache_misses"] = cache_summary["misses"]
            stats.shards.append(summary)
            if bus.active:
                bus.mark(SERVICE_SHARD, dict(summary))
        for name, count in run["counters"].items():
            setattr(stats, name, count)  # all zero under plain routing
        if trace:
            rows, background = merge_shard_traces(
                result.get("trace") for result in results)
            self.last_trace = TraceReport(
                rows, background, num_shards=self.router.num_shards)
        else:
            self.last_trace = None
        self.slo.observe(stats, duration_s)
        if self.admission is not None:
            decisions = self.admission.observe(stats, self.slo.report(),
                                               duration_s)
            if bus.active:
                for decision in decisions:
                    bus.mark(ADMISSION_DECISION, dict(decision))
        self.last_stats = stats
        return stats

    # ------------------------------------------------------------------
    # Executor inputs (per run)
    # ------------------------------------------------------------------

    def executor_inputs(self) -> Dict[str, Optional[list]]:
        """What every shard executor of the next run takes beside the
        config, as :class:`~repro.service.executor.ShardExecutor`
        keywords: ``tenant_names`` (pseudo-tenants last), and aligned
        with them ``wear_budgets``, ``cache_tenants`` and
        ``cache_tenant_caps`` (None: not in force)."""
        # Pseudo-tenants follow the tenants, by number; a run routed as
        # by the plain striped router, on healthy banks, has none.  They
        # carry redundancy overhead: never budgeted, capped or cached.
        pseudo = ([] if self.router.is_plain and not self.degraded
                  else [_REDUNDANCY_TENANT, _REBUILD_TENANT])
        pad = [None] * len(pseudo)
        inputs = {"tenant_names": [t.name for t in self.tenants] + pseudo,
                  "wear_budgets": [
                      spec.wear_budget if spec.wear_budget is not None
                      else self.config.wear_budget
                      for spec in self.tenants] + pad,
                  "cache_tenants": None, "cache_tenant_caps": None}
        if self.config.cache_pages > 0:
            inputs["cache_tenants"] = (self._cache_tier_flags()
                                       + [False] * len(pseudo))
            caps = self._cache_tenant_caps()
            if caps is not None:
                inputs["cache_tenant_caps"] = caps + pad
        return inputs

    def _cache_tier_flags(self) -> List[bool]:
        """Per-tenant cache-tier membership for the next run.

        Without closed-loop admission every tenant is in the tier
        unless it opted out (``cache=False``).  With admission, the
        tier is pinned tenants (``cache=True``) plus currently
        promoted ones.  (Pseudo-tenants never cache: their replica
        reads and rebuild copies pay honest Flash timing.)
        """
        if self.admission is not None:
            tier = set(self.admission.cache_tier())
            return [spec.name in tier for spec in self.tenants]
        return [spec.cache is not False for spec in self.tenants]

    def _cache_tenant_caps(self) -> Optional[List[int]]:
        """Per-tenant occupancy caps (pages per shard), or None.

        ``cache_tenant_cap`` < 1 bounds every tenant to that fraction
        of one shard's cache.  When a previous run's latency
        histograms exist, the cap is demand-informed: it shrinks
        toward the tenant's observed share of reads, but never below
        an equal split — so an idle tenant cannot reserve tier space
        a busy one could use, and a noisy one cannot grab more than
        the configured fraction.
        """
        fraction = self.config.cache_tenant_cap
        if fraction >= 1.0:
            return None
        pages = self.config.cache_pages
        hard_cap = max(1, int(pages * fraction))
        fair = max(1, pages // len(self.tenants))
        stats = self.last_stats
        total_reads = 0
        if stats is not None:
            total_reads = sum(t.read_latency.count
                              for t in stats.tenants.values())
        caps: List[int] = []
        for spec in self.tenants:
            cap = hard_cap
            if total_reads > 0 and spec.name in stats.tenants:
                share = int(pages * stats.tenants[spec.name]
                            .read_latency.count / total_reads)
                cap = max(fair, min(hard_cap, max(share, 1)))
            caps.append(cap)
        return caps

    # ------------------------------------------------------------------
    # Bank lifecycle (redundancy layer)
    # ------------------------------------------------------------------

    def bank_state(self, bank: int) -> str:
        """``healthy`` / ``dead`` / ``rebuilding`` for one bank."""
        if not 0 <= bank < self.router.num_shards:
            raise IndexError(f"no bank {bank}")
        return self._bank_states[bank]

    @property
    def degraded(self) -> bool:
        """True while any bank is dead or rebuilding."""
        return any(state != BANK_HEALTHY for state in self._bank_states)

    def kill_bank(self, bank: int) -> None:
        """Declare a whole bank lost.

        The bank's in-process controller (if any) moves to the dead
        pool — direct access will no longer touch it, but chaos drills
        can still recover its Flash array post mortem via
        :meth:`dead_bank_controller`.  Serving continues from mirrors
        or parity; operations whose redundancy is exhausted raise
        :class:`DegradedModeError` when attempted, not here.
        """
        if not 0 <= bank < self.router.num_shards:
            raise IndexError(f"no bank {bank}")
        if self._bank_states[bank] == BANK_DEAD:
            return
        self._bank_states[bank] = BANK_DEAD
        self._rebuilds.pop(bank, None)
        if self._shards is not None and self._shards[bank] is not None:
            self._dead_shards[bank] = self._shards[bank]
            self._shards[bank] = None
        if self.events.active:
            self.events.mark(REDUNDANCY_KILL, {"bank": bank})

    def dead_bank_controller(self, bank: int) -> EnvyController:
        """The controller a killed bank left behind (for post-mortem
        recovery of its Flash array)."""
        if bank not in self._dead_shards:
            raise KeyError(f"bank {bank} left no dead controller")
        return self._dead_shards[bank]

    def replace_bank(self, bank: int,
                     controller: Optional[EnvyController] = None,
                     pages_per_step: int = 32) -> RebuildScheduler:
        """Install a blank replacement for a dead bank; start rebuild.

        The bank enters the ``rebuilding`` state: reads keep being
        served degraded (the replacement is not trusted until the
        rebuild verifies), while writes also program the replacement
        so rebuilt pages never go stale.  Returns the
        :class:`RebuildScheduler`; drive it with :meth:`~
        RebuildScheduler.step` (in-process) or let :meth:`run` charge
        its copy traffic at ``rebuild_rate_pps``, then call
        :meth:`~RebuildScheduler.finish`.
        """
        if self.bank_state(bank) != BANK_DEAD:
            raise ValueError(
                f"bank {bank} is {self._bank_states[bank]}, only dead "
                f"banks can be replaced")
        scheduler = RebuildScheduler(self, bank,
                                     pages_per_step=pages_per_step)
        if self._shards is None:
            self._shards = [None] * self.router.num_shards
        self._shards[bank] = controller or EnvyController(
            self.config.shard_config(), store_data=self.config.store_data)
        self._bank_states[bank] = BANK_REBUILDING
        self._rebuilds[bank] = scheduler
        return scheduler

    def mark_bank_healthy(self, bank: int) -> None:
        """Return a rebuilt bank to service (what
        :meth:`RebuildScheduler.finish` does).

        Only a rebuilding bank whose rebuild has finished qualifies: a
        killed bank missed every write made while it was dead, so it
        is never revived — it is replaced and rebuilt.
        """
        scheduler = self._rebuilds.get(bank)
        if (self.bank_state(bank) != BANK_REBUILDING or scheduler is None
                or not scheduler.done):
            raise ValueError(
                f"bank {bank} is {self._bank_states[bank]} without a "
                f"finished rebuild; only a rebuilt bank returns to "
                f"service")
        self._bank_states[bank] = BANK_HEALTHY
        del self._rebuilds[bank]
        self._dead_shards.pop(bank, None)

    def rebuild_status(self) -> Dict[int, dict]:
        """Progress of every active rebuild, keyed by bank."""
        return {bank: {"progress": round(scheduler.progress, 4),
                       "pages_done": scheduler.position,
                       "pages_total": scheduler.total}
                for bank, scheduler in sorted(self._rebuilds.items())}

    # ------------------------------------------------------------------
    # Hot-page rebalancing
    # ------------------------------------------------------------------

    def rebalance(self, duration_s: float, max_moves: int = 64,
                  tolerance: float = 1.10) -> dict:
        """Flatten per-bank load skew by remapping hot logical pages.

        The load profile is measured from the *deterministic* schedule
        the tenants would offer over ``duration_s`` (same generator,
        same seed — no sampling noise), attributed to banks through
        the current routing.  :func:`~repro.service.redundancy.
        plan_rebalance` picks hot/cold swaps; each remaps both pages and,
        on in-process data-bearing banks, moves their payloads too.
        """
        router = self.router
        windows, _ = self._load_generator().stream(duration_s, {})
        page_loads: Dict[int, int] = {}
        for _, _, _, _, page in chain.from_iterable(windows):
            page_loads[page] = page_loads.get(page, 0) + 1

        def bank_loads() -> List[int]:
            loads = [0] * router.num_shards
            for page, load in page_loads.items():
                loads[router.route(page)[0]] += load
            return loads

        def imbalance(loads: List[int]) -> float:
            mean = sum(loads) / len(loads)
            return max(loads) / mean if mean else 1.0

        before = bank_loads()
        swaps = plan_rebalance(router, page_loads, max_moves=max_moves,
                               tolerance=tolerance)
        bus = self.events
        for hot, cold in swaps:
            self._swap_pages(hot, cold)
            if bus.active:
                bus.mark(REDUNDANCY_REBALANCE,
                         {"page": hot, "from": router.route(cold)[0],
                          "to": router.route(hot)[0]})
        after = bank_loads()
        return {
            "swaps": len(swaps),
            "remapped_pages": router.remapped_pages,
            "bank_loads_before": before,
            "bank_loads_after": after,
            "imbalance_before": round(imbalance(before), 4),
            "imbalance_after": round(imbalance(after), 4),
        }

    def _swap_pages(self, page: int, peer: int) -> None:
        """Remap ``page`` and ``peer`` onto each other's slots
        (SoftWear-style: a table update); in-process data-bearing banks
        migrate both payloads through the write path."""
        if self._shards is None or not self.config.store_data:
            self.router.swap(page, peer)
            return
        page_bytes = self.read_page(page)
        peer_bytes = self.read_page(peer)
        self.router.swap(page, peer)
        self.write_page(page, page_bytes)
        self.write_page(peer, peer_bytes)

    # ------------------------------------------------------------------
    # Security (adversarial multi-tenancy)
    # ------------------------------------------------------------------

    def quarantine(self, name: str,
                   rate_tps: Optional[float] = None) -> None:
        """Degrade one tenant's token bucket to the quarantine rate.

        Quarantine acts at schedule time (the load generator swaps in a
        bucket at ``rate_tps``, never relaxing the tenant's own limit),
        so a quarantined tenant's traffic is throttled identically
        across reruns and ``jobs`` settings.  ``release`` undoes it.
        """
        if name not in {t.name for t in self.tenants}:
            raise ValueError(f"unknown tenant {name!r}")
        rate = float(rate_tps if rate_tps is not None
                     else self.config.quarantine_tps)
        if not 0 < rate < math.inf:  # NaN too: its bucket admits all
            raise ValueError("quarantine rate must be positive and finite")
        self.quarantined[name] = rate
        if self.events.active:
            self.events.mark(SECURITY_QUARANTINE,
                             {"tenant": name, "rate_tps": rate})

    def detect_attacks(self) -> dict:
        """Run the :class:`~repro.service.adversary.AttackDetector`
        over the last run's attributed wear; the report lands in
        ``health_report()["security"]``.

        Needs a run with ``attribute_wear=True`` — the detector's
        signals (wear concentration, cleaning amplification, buffer
        residency) only exist when shards attributed them.
        """
        if self.last_stats is None:
            raise ValueError("run the service before detecting attacks")
        report = AttackDetector(self).analyze(self.last_stats)
        self._last_security = report
        return report

    def scatter_hot_pages(self, name: str, max_pages: int = 16,
                          stats: Optional[ServiceStats] = None) -> dict:
        """Remap a flagged tenant's hottest pages to seeded random
        peers, as :meth:`rebalance` swaps (payloads move with them on
        in-process data-bearing banks), from the next run on.

        Needs a run with attributed wear to rank the tenant's pages by
        — the last run by default, or an explicit ``stats`` (e.g. the
        attack run's wear applied to a fresh mitigated service).
        """
        router = self.router
        names = [t.name for t in self.tenants]
        if name not in names:
            raise ValueError(f"unknown tenant {name!r}")
        stats = stats if stats is not None else self.last_stats
        wear = (stats.tenants[name].wear
                if stats is not None and name in stats.tenants else None)
        if not wear or not wear["page_writes"]:
            raise ValueError(
                f"no attributed wear for {name!r} — run with "
                f"attribute_wear=True first")
        hot = sorted(((page, count) for page, count
                      in wear["page_writes"].items() if isinstance(page, int)),
                     key=lambda item: (-item[1], item[0]))[:max_pages]
        rng = random.Random(
            derive_seed(self.config.seed, 7000 + names.index(name)))
        taken = {page for page, _ in hot}
        bus = self.events
        swaps: List[Tuple[int, int]] = []
        for page, _ in hot:
            peer = None
            for _ in range(32):
                candidate = rng.randrange(router.num_pages)
                if candidate not in taken:
                    peer = candidate
                    break
            if peer is None:
                continue
            taken.add(peer)
            self._swap_pages(page, peer)
            swaps.append((page, peer))
            if bus.active:
                bus.mark(SECURITY_REMAP,
                         {"tenant": name, "page": page, "peer": peer})
        return {"tenant": name, "swaps": swaps,
                "remapped_pages": router.remapped_pages}

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------

    def health_report(self) -> dict:
        """Flat service-health snapshot (deterministic per seed).

        Admission-control outcomes — token-bucket throttles, queue-full
        rejections and cleaner-debt sheds — are first-class counters
        here: with the same tenants, duration and seed, two runs (at any
        ``jobs`` setting) report identical numbers.
        """
        policy = self.router.policy
        rebuilds = self.rebuild_status()
        report = {
            "num_shards": self.router.num_shards,
            "pages_per_shard": self.router.pages_per_shard,
            "service_pages": self.router.num_pages,
            "tenants": len(self.tenants),
            "seed": self.config.seed,
            "redundancy": {
                "policy": policy.name,
                "placement": self.router.placement,
                "write_fanout": policy.write_fanout,
                "survivable_bank_losses": policy.survivable,
                "degraded": self.degraded,
                "remapped_pages": self.router.remapped_pages,
                "banks": [
                    {"bank": bank, "state": state,
                     "rebuild": rebuilds.get(bank)}
                    for bank, state in enumerate(self._bank_states)],
            },
        }
        security = {
            "quarantined": dict(sorted(self.quarantined.items())),
            "wear_budget": self.config.wear_budget,
            "flagged": [],
        }
        if self._last_security is not None:
            security.update(self._last_security)
        report["security"] = security
        if self.config.cache_pages > 0:
            cache_section = {
                "pages_per_shard": self.config.cache_pages,
                "policy": "clock",
                "hit_ns": DRAM_READ_NS,
                "tenant_cap": self.config.cache_tenant_cap,
            }
            if self.last_stats is not None:
                cache_section.update({
                    "hits": self.last_stats.cache_hits,
                    "misses": self.last_stats.cache_misses,
                    "evictions": self.last_stats.cache_evictions,
                    "invalidations":
                        self.last_stats.cache_invalidations,
                    "hit_rate": round(
                        self.last_stats.cache_hit_rate, 6),
                })
            report["cache"] = cache_section
        if self.admission is not None:
            report["admission"] = self.admission.report()
        if self.slo:
            report["slo"] = self.slo.report()
        if self._last_chaos is not None:
            report["recovery"] = self._last_chaos
        stats = self.last_stats
        if stats is None:
            report["last_run"] = False
            return _canonical_report(report)
        report["last_run"] = True
        report.update({
            "requests_offered": stats.requests_offered,
            "requests_throttled": stats.requests_throttled,
            "requests_admitted": stats.requests_admitted,
            "requests_rejected_queue": stats.requests_rejected_queue,
            "requests_rejected_shed": stats.requests_rejected_shed,
            "requests_rejected": stats.requests_rejected,
            "requests_retried": stats.requests_retried,
            "requests_rejected_wear": stats.requests_rejected_wear,
            "accesses_served": stats.accesses_served,
            "simulated_ns": stats.simulated_ns,
            "accesses_per_simulated_s": round(
                stats.accesses_per_simulated_s, 1),
            "degraded_reads": stats.degraded_reads,
            "degraded_writes": stats.degraded_writes,
            "replica_accesses": stats.replica_accesses,
            "rebuild_accesses": stats.rebuild_accesses,
        })
        for name, tstats in stats.tenants.items():
            for key, value in tstats.as_dict().items():
                report[f"tenant_{name}_{key}"] = value
        for summary in stats.shards:
            prefix = f"shard_{summary['shard']}_"
            for key in ("accesses", "rejected_queue", "rejected_shed",
                        "retried", "flushes", "clean_copies", "erases"):
                report[prefix + key] = summary[key]
            if "cache_hits" in summary:
                report[prefix + "cache_hits"] = summary["cache_hits"]
                report[prefix + "cache_misses"] = \
                    summary["cache_misses"]
        if stats.cache_hits or stats.cache_misses:
            report["cache_hits"] = stats.cache_hits
            report["cache_misses"] = stats.cache_misses
            report["cache_hit_rate"] = round(stats.cache_hit_rate, 6)
        return _canonical_report(report)

    def record_chaos_report(self, report: ChaosReport) -> None:
        """Fold a chaos drill's per-shard recovery outcome into
        :meth:`health_report` (its ``recovery`` section)."""
        self._last_chaos = {
            "ok": report.ok,
            "kill_at": report.kill_at,
            "interrupted": report.interrupted,
            "shards": [dict(entry) for entry in report.shards],
        }

    # ------------------------------------------------------------------
    # Direct access (in-process shards)
    # ------------------------------------------------------------------

    def shard(self, index: int) -> EnvyController:
        """The in-process controller for shard ``index`` (lazy).

        Direct-access shards are independent of :meth:`run` (which
        builds fresh, prewarmed shard state inside its workers) — they
        exist for interactive use, transactions and chaos drills.
        """
        if not 0 <= index < self.router.num_shards:
            raise IndexError(f"no shard {index}")
        if self._bank_states[index] == BANK_DEAD:
            raise DegradedModeError(
                f"bank {index} is dead; serve through the redundancy "
                f"layer (read_page/write_page) or replace_bank() it")
        if self._shards is None:
            self._shards = [None] * self.router.num_shards
        if self._shards[index] is None:
            self._shards[index] = EnvyController(
                self.config.shard_config(),
                store_data=self.config.store_data)
        return self._shards[index]

    def read_xor(self, slots: Sequence[Slot],
                 fold: Sequence[bytes] = ()) -> bytes:
        """The XOR of ``fold`` and the bytes of every slot in ``slots``
        (a lone slot is a plain read): how direct access serves the
        reads of an :func:`~repro.service.redundancy.io_plan` and of a
        rebuild's sources."""
        page_bytes = self.config.page_bytes
        chunks = list(fold) + [self.shard(bank).read(local * page_bytes,
                                                     page_bytes)
                               for bank, local in slots]
        if len(chunks) == 1:
            return chunks[0]
        value = 0
        for chunk in chunks:
            value ^= int.from_bytes(chunk, "little")
        return value.to_bytes(page_bytes, "little")

    def _mark_degraded(self, page: int, source: str) -> None:
        if self.events.active:
            self.events.mark(REDUNDANCY_DEGRADED,
                             {"page": page,
                              "bank": self.router.route(page)[0],
                              "source": source})

    def read_page(self, page: int) -> bytes:
        """Read one global logical page through its shard.

        While the primary bank is dead — or rebuilding, and therefore
        not yet trusted — the read is served transparently from a
        mirror copy or a parity reconstruction; only exhausted
        redundancy raises :class:`DegradedModeError`.
        """
        reads, _, degraded = io_plan(self.router, self._bank_states, page,
                                     False)
        if degraded:
            self._mark_degraded(page, "read")
        return self.read_xor(reads)

    def write_page(self, page: int, data: bytes) -> int:
        """Write one global logical page; returns nanoseconds taken.

        The write programs every placement :func:`~repro.service.
        redundancy.io_plan` names (mirror copies, or data + XOR parity);
        a dead primary redirects into the surviving placements, and only
        exhausted redundancy raises :class:`DegradedModeError`.  Under
        parity the new parity is the XOR of the plan's reads and the new
        page content — the old content overlaid with ``data``, whose
        remainder a sub-page write reads back first.
        """
        page_bytes = self.config.page_bytes
        if len(data) > page_bytes:
            raise ValueError("data exceeds one page")
        router, states = self.router, self._bank_states
        reads, programs, degraded = io_plan(router, states, page, True)
        if degraded:
            self._mark_degraded(page, "write")
        payloads = [data] * len(programs)
        if reads:
            new = data
            if len(data) < page_bytes:
                old = self.read_xor(io_plan(router, states, page, False)[0])
                new += old[len(data):]
            payloads[-1] = self.read_xor(reads, (new,))
        return sum(self.shard(bank).write(local * page_bytes, payload)
                   for (bank, local), payload in zip(programs, payloads))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EnvyService({self.router.num_shards} shards x "
                f"{self.router.pages_per_shard} pages, "
                f"{len(self.tenants)} tenants)")
