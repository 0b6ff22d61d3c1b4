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
in-process: :meth:`read` / :meth:`write` route single-page operations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.chaos import ChaosReport
from ..core.config import EnvyConfig
from ..core.controller import EnvyController
from ..obs.events import (ADMISSION_DECISION, CACHE_INVALIDATE,
                          REDUNDANCY_DEGRADED, REDUNDANCY_KILL,
                          REDUNDANCY_REBALANCE, REDUNDANCY_REBUILD,
                          REDUNDANCY_REPLICA, SECURITY_QUARANTINE,
                          SECURITY_REMAP, SERVICE_RUN, SERVICE_SHARD,
                          EventBus)
from ..obs.slo import SLOTracker
from ..obs.trace import TraceReport, merge_shard_traces
from ..perf.sweep import derive_seed, resolve_jobs, run_sweep
from .admission import AdmissionController
from .cache import CACHE_POLICIES, DRAM_READ_NS, PageCache
from .executor import shard_executor
from .loadgen import LoadGenerator, Request
from .redundancy import (BANK_DEAD, BANK_HEALTHY, BANK_REBUILDING,
                         DegradedModeError, ParityPolicy, RebuildScheduler,
                         RedundantRouter, make_policy, plan_rebalance)
from .shard import ShardRouter
from .tenant import TenantSpec, TenantStats, field_types, merge_columns

__all__ = ["ServiceConfig", "ServiceStats", "EnvyService",
]

#: Pseudo-tenant names carrying redundancy / rebuild overhead traffic
#: through the shard executors without polluting tenant accounting.
_REDUNDANCY_TENANT = "__redundancy__"
_REBUILD_TENANT = "__rebuild__"


def _rebuild_sources(entry: dict, states: Sequence[str]) -> list:
    """The live peer slots one rebuild plan entry reads: every surviving
    stripe member for an XOR, any one surviving copy for a mirror."""
    sources = [slot for slot in entry["sources"]
               if states[slot[0]] != BANK_DEAD]
    return sources[:1] if entry["op"] == "copy" else sources


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
    #: Window length for the per-tenant buffer-residency time series.
    attribution_window_ns: int = 50_000
    #: Service-wide default cap on admitted writes per (tenant, page);
    #: a TenantSpec.wear_budget overrides it per tenant.  None = off.
    wear_budget: Optional[int] = None
    #: Token-bucket rate a quarantined tenant is degraded to.
    quarantine_tps: float = 50_000.0
    #: Force a remap-capable router even without redundancy, so
    #: flagged tenants' hot pages can be scattered (SoftWear-style).
    remappable: bool = False
    #: DRAM read-cache capacity *per shard*, in pages (0 = no cache
    #: tier).  Hits are served at :data:`~repro.core.costmodel.
    #: DRAM_READ_NS` without crossing the eNVy bus.
    cache_pages: int = 0
    #: Cache replacement policy: ``clock`` (default) or ``lru``.
    cache_policy: str = "clock"
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
        if self.attribution_window_ns < 1:
            raise ValueError("attribution windows need positive length")
        if self.wear_budget is not None and self.wear_budget < 1:
            raise ValueError("wear_budget must allow at least one write")
        if not 0 < self.quarantine_tps < math.inf:
            raise ValueError("quarantine_tps must be positive and finite")
        if self.cache_pages < 0:
            raise ValueError("cache_pages cannot be negative")
        if self.cache_policy not in CACHE_POLICIES:
            raise ValueError(f"unknown cache policy "
                             f"{self.cache_policy!r}; choose from "
                             f"{CACHE_POLICIES}")
        if not 0.0 < self.cache_tenant_cap <= 1.0:
            raise ValueError("cache_tenant_cap must be in (0, 1]")
        # Raises on malformed redundancy specs / placements, and on
        # geometry the policy cannot cover (validated in make_router).
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
        policy = make_policy(self.redundancy)
        if (policy.name == "none" and self.placement == "striped"
                and not self.remappable):
            # The PR-6 router, byte-for-byte: plain striping keeps the
            # raw-arithmetic partition fast path.
            return ShardRouter(self.num_shards, self.pages_per_shard,
                               self.page_bytes)
        return RedundantRouter(self.num_shards, self.pages_per_shard,
                               self.page_bytes, placement=self.placement,
                               policy=policy)

    def shard_point_base(self) -> Dict:
        """The picklable spec shared by every shard's sweep point."""
        return {
            "num_segments": self.num_segments,
            "pages_per_segment": self.pages_per_segment,
            "page_bytes": self.page_bytes,
            "utilization": self.utilization,
            "policy": self.policy,
            "queue_capacity": self.queue_capacity,
            "soft_watermark": self.soft_watermark,
            "hard_watermark": self.hard_watermark,
            "prewarm_turnovers": self.prewarm_turnovers,
            "store_data": self.store_data,
            "seed": self.seed,
            "retry_limit": self.retry_limit,
            "retry_backoff_ns": self.retry_backoff_ns,
            "attribute_wear": self.attribute_wear,
            "attribution_window_ns": self.attribution_window_ns,
            "cache_pages": self.cache_pages,
            "cache_policy": self.cache_policy,
        }


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
        #: Front-door byte cache for direct access (read_page): the
        #: union of the shard tiers, holding real payloads.  Cleaner
        #: relocations on in-process shards invalidate through the
        #: store's copy listener; writes and topology changes (bank
        #: kill / replace / rebalance / scatter) invalidate here.
        self._page_cache: Optional[PageCache] = (
            PageCache(self.config.cache_pages * self.router.num_shards,
                      self.config.cache_policy)
            if self.config.cache_pages > 0 else None)
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

    def _plain_routing(self) -> bool:
        """True when partitioning may use the raw striped arithmetic:
        no redundancy, no remap, no ranged placement, no sick banks."""
        router = self.router
        if isinstance(router, RedundantRouter) and not router.is_plain:
            return False
        return all(state == BANK_HEALTHY for state in self._bank_states)

    def partition(self, requests: Sequence[Request],
                  with_rids: bool = False,
                  rid_base: int = 0) -> List[List[Request]]:
        """Split the schedule (or one window of it, whose first row is
        request ``rid_base``) into per-shard slices with local pages.

        With redundancy, remapping, degraded banks or an active
        rebuild, each logical request expands into its placement set
        (replica programs, parity maintenance, degraded redirections,
        rebuild copy traffic) with overhead rows attributed to pseudo
        tenants — every extra flash operation is charged through the
        same cost model as foreground traffic.

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
        num_shards = self.router.num_shards
        slices: List[List[Request]] = [[] for _ in range(num_shards)]
        if self._plain_routing():
            self._last_expansion = None
            rid_slices = self._last_rids = (
                [[] for _ in range(num_shards)] if with_rids else None)
            for rid, (arrival, tenant, seq, is_write,
                      page) in enumerate(requests, rid_base):
                shard = page % num_shards
                slices[shard].append((arrival, tenant, seq, is_write,
                                      page // num_shards))
                if with_rids:
                    rid_slices[shard].append(rid)
            return slices
        return self._partition_expanded(requests, slices, with_rids,
                                        rid_base)

    def _partition_expanded(self, requests: Sequence[Request],
                            slices: List[List[Request]],
                            with_rids: bool = False,
                            rid_base: int = 0) -> List[List[Request]]:
        router = self.router
        states = self._bank_states
        num_shards = router.num_shards
        redundant = isinstance(router, RedundantRouter)
        parity = redundant and isinstance(router.policy, ParityPolicy)
        pseudo_red = len(self.tenants)       # __redundancy__
        # Outside a run: fresh counters and no rebuild to charge.
        run = self._run_expansion or self._begin_expansion(0.0)
        counters = run["counters"]
        bus = self.events

        cur_rid = 0

        def emit(bank: int, tenant_index: int, seq: int, is_write: bool,
                 local: int) -> None:
            row = (arrival, tenant_index, seq, is_write, local)
            if with_rids:
                # rid rides as the last tuple element so a later sort
                # co-sorts rows and rids; stripped before dispatch.
                row += (cur_rid,)
            slices[bank].append(row)

        for cur_rid, (arrival, tenant, seq, is_write,
                      page) in enumerate(requests, rid_base):
            if is_write:
                # Only a write needs every slot it must program; a read
                # routes to its primary (below).
                placements = (router.placements(page) if redundant
                              else [router.route(page)])
                primary_bank, primary_local = placements[0]
                live = [slot for slot in placements
                        if states[slot[0]] != BANK_DEAD]
                if not live:
                    raise DegradedModeError(
                        f"page {page}: every placement {placements} is "
                        f"on a dead bank — redundancy exhausted")
                primary_dead = states[primary_bank] == BANK_DEAD
                if primary_dead:
                    counters["degraded_writes"] += 1
                    if bus.active:
                        bus.mark(REDUNDANCY_DEGRADED,
                                 {"page": page, "bank": primary_bank,
                                  "source": "write"})
                if parity:
                    if primary_dead:
                        # Degraded parity write: fold the update into
                        # parity by reading every surviving data member
                        # of the stripe.
                        parity_bank = live[0][0]
                        for peer in range(num_shards):
                            if (peer in (primary_bank, parity_bank)
                                    or states[peer] == BANK_DEAD):
                                continue
                            counters["replica_accesses"] += 1
                            emit(peer, pseudo_red, seq, False,
                                 primary_local)
                    elif len(live) > 1:
                        # RAID small write: read old data + old parity
                        # before programming both.
                        for bank, local in live:
                            counters["replica_accesses"] += 1
                            emit(bank, pseudo_red, seq, False, local)
                first = True
                for bank, local in live:
                    if first:
                        emit(bank, tenant, seq, True, local)
                        first = False
                        continue
                    counters["replica_accesses"] += 1
                    if bus.active:
                        bus.mark(REDUNDANCY_REPLICA,
                                 {"bank": bank, "kind": "program"})
                    emit(bank, pseudo_red, seq, True, local)
                continue
            # Reads: primary if healthy, else the first fully-healthy
            # fallback group (one mirror slot, or a whole parity
            # stripe XORed together).  A rebuilding bank takes writes
            # but is not trusted for reads until its rebuild verifies.
            primary_bank, primary_local = router.route(page)
            if states[primary_bank] == BANK_HEALTHY:
                emit(primary_bank, tenant, seq, False, primary_local)
                continue
            served = False
            for group in (router.read_groups(page) if redundant else []):
                if any(states[bank] != BANK_HEALTHY
                       for bank, _ in group):
                    continue
                counters["degraded_reads"] += 1
                if bus.active:
                    bus.mark(REDUNDANCY_DEGRADED,
                             {"page": page, "bank": primary_bank,
                              "source": "read"})
                first = True
                for bank, local in group:
                    if first:
                        emit(bank, tenant, seq, False, local)
                        first = False
                        continue
                    counters["replica_accesses"] += 1
                    emit(bank, pseudo_red, seq, False, local)
                served = True
                break
            if not served:
                raise DegradedModeError(
                    f"page {page}: primary bank {primary_bank} is dead "
                    f"and no fallback group survives — redundancy "
                    f"exhausted")

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
        self._last_expansion = counters
        return slices

    def _begin_expansion(self, duration_s: float) -> dict:
        """What one run's expansion carries across its windows: the
        counters, and a ``[bank, scheduler, entries taken, next rid]``
        cursor per bank whose rebuild the run charges at
        ``rebuild_rate_pps``.  Rebuild rows serve no foreground request:
        unique negative rids, numbered bank by bank, keep them out of
        the trace's cross-shard flow links."""
        gap_ns = max(1, int(1e9 / self.config.rebuild_rate_pps))
        budget = int(duration_s * 1e9) // gap_ns
        states = self._bank_states
        cursors, rid = [], -1
        for bank, scheduler in sorted(self._rebuilds.items()):
            if scheduler.done or not budget:
                continue
            cursors.append([bank, scheduler, 0, rid])
            start = scheduler.position
            rid -= sum(len(_rebuild_sources(entry, states)) + 1
                       for entry in scheduler.plan[start:start + budget])
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
        states = self._bank_states
        pseudo_reb = len(self.tenants) + 1   # __rebuild__
        bus = self.events
        for cursor in run["cursors"]:
            bank, scheduler, taken, rid = cursor
            entries = scheduler.take(due - taken)
            for index, entry in enumerate(entries, taken):
                arrival = index * gap_ns
                rows = [(src_bank, (arrival, pseudo_reb, index, False,
                                    src_local))
                        for src_bank, src_local
                        in _rebuild_sources(entry, states)]
                rows.append((bank, (arrival, pseudo_reb, index, True,
                                    entry["local"])))
                counters["rebuild_accesses"] += len(rows)
                for row_bank, row in rows:
                    if with_rids:
                        row += (rid,)
                        rid -= 1
                    slices[row_bank].append(row)
            cursor[2:] = (taken + len(entries), rid)
            if until_ns is None and bus.active:
                bus.mark(REDUNDANCY_REBUILD,
                         {"bank": bank, "pages": cursor[2],
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
        # Pseudo-tenants follow the tenants, by number.
        pseudo = ([] if self._plain_routing()
                  else [_REDUNDANCY_TENANT, _REBUILD_TENANT])
        tenant_names = [t.name for t in self.tenants] + pseudo
        base = self.config.shard_point_base()
        budgets = [spec.wear_budget if spec.wear_budget is not None
                   else self.config.wear_budget for spec in self.tenants]
        if budgets.count(None) < len(budgets):
            # Pseudo-tenants carry redundancy overhead, never budgets.
            base["wear_budgets"] = budgets + [None] * len(pseudo)
        if self.config.cache_pages > 0:
            base["cache_tenants"] = self._cache_tier_flags() + [False] * len(
                pseudo)
            caps = self._cache_tenant_caps()
            if caps is not None:
                base["cache_tenant_caps"] = caps + [None] * len(pseudo)
        num_shards = self.router.num_shards
        points = [dict(base, shard_index=index, tenant_names=tenant_names,
                       trace=trace, requests=[],
                       rids=[] if trace else None)
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
                executor.start(latency + [None] * len(pseudo))
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
            shard = shard_result["shard"]
            columns = shard_result["columns"]
            for tstats, wear in zip(tenant_stats,
                                    shard_result.get("wear", ())):
                self._globalize_wear(wear, shard)
                tstats.merge_wear(wear)
            for phys, count in sorted(
                    shard_result.get("segment_programs", {}).items()):
                stats.segment_programs[f"s{shard}:p{phys}"] = count
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
    # Cache tier inputs (per run)
    # ------------------------------------------------------------------

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

    def _globalize_wear(self, wear: Dict, shard: int) -> None:
        """Rewrite one shard slice's wear keys into service-global terms
        (in place, before the cross-shard merge): local page numbers
        become global logical pages and physical segments become
        ``s<bank>:p<phys>`` strings, so merging never conflates two
        banks' resources."""
        router = self.router
        page_writes = {}
        for local, count in wear["page_writes"].items():
            try:
                page_writes[router.global_page(shard, local)] = count
            except IndexError:
                # Non-primary slot (degraded redirect): no global
                # primary inverse; keep a shard-scoped key instead.
                page_writes[f"s{shard}:l{local}"] = count
        wear["page_writes"] = page_writes
        wear["flush_segments"] = {
            f"s{shard}:p{phys}": count
            for phys, count in wear["flush_segments"].items()}

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
        self._invalidate_cache_all()
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
        replacement = controller or EnvyController(
            self.config.shard_config(),
            store_data=self.config.store_data)
        self._attach_copy_listener(bank, replacement)
        self._shards[bank] = replacement
        self._bank_states[bank] = BANK_REBUILDING
        self._rebuilds[bank] = scheduler
        self._invalidate_cache_all()
        return scheduler

    def mark_bank_healthy(self, bank: int) -> None:
        """Return a rebuilt (or wrongly-killed) bank to service."""
        if not 0 <= bank < self.router.num_shards:
            raise IndexError(f"no bank {bank}")
        self._bank_states[bank] = BANK_HEALTHY
        self._rebuilds.pop(bank, None)
        self._dead_shards.pop(bank, None)
        self._invalidate_cache_all()

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
        plan_rebalance` picks hot/cold swaps; each swap remaps both
        pages (SoftWear-style — a table update, no hardware support)
        and, when in-process data-bearing banks exist, migrates the
        payloads through the normal write path so replicas and parity
        stay consistent.
        """
        router = self.router
        if not isinstance(router, RedundantRouter):
            raise ValueError(
                "rebalancing needs a redundancy-aware router — set "
                "placement='ranged' or any redundancy in ServiceConfig")
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
        migrate = (self._shards is not None
                   and self.config.store_data)
        bus = self.events
        for hot, cold in swaps:
            if migrate:
                hot_bytes = self.read_page(hot)
                cold_bytes = self.read_page(cold)
                router.swap(hot, cold)
                self.write_page(hot, hot_bytes)
                self.write_page(cold, cold_bytes)
            else:
                router.swap(hot, cold)
            if bus.active:
                bus.mark(REDUNDANCY_REBALANCE,
                         {"page": hot, "from": router.route(cold)[0],
                          "to": router.route(hot)[0]})
        if swaps:
            self._invalidate_cache_all()
        after = bank_loads()
        return {
            "swaps": len(swaps),
            "remapped_pages": router.remapped_pages,
            "bank_loads_before": before,
            "bank_loads_after": after,
            "imbalance_before": round(imbalance(before), 4),
            "imbalance_after": round(imbalance(after), 4),
        }

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
        from .adversary import AttackDetector

        if self.last_stats is None:
            raise ValueError("run the service before detecting attacks")
        report = AttackDetector(self).analyze(self.last_stats)
        self._last_security = report
        return report

    def scatter_hot_pages(self, name: str, max_pages: int = 16,
                          stats: Optional[ServiceStats] = None) -> dict:
        """Remap a flagged tenant's hottest pages to seeded random
        peers (SoftWear-style table swaps — no data moves in the
        simulated hardware, the pages just land on other banks /
        segments from the next run on).

        Needs a remap-capable router (``remappable=True``, any
        redundancy, or ranged placement) and a run with attributed wear
        to rank the tenant's pages by — the last run by default, or an
        explicit ``stats`` (e.g. the attack run's wear applied to a
        fresh mitigated service).
        """
        router = self.router
        if not isinstance(router, RedundantRouter):
            raise ValueError(
                "hot-page scatter needs a remap-capable router — set "
                "remappable=True (or any redundancy) in ServiceConfig")
        names = [t.name for t in self.tenants]
        if name not in names:
            raise ValueError(f"unknown tenant {name!r}")
        stats = stats if stats is not None else self.last_stats
        wear = (stats.tenants[name].wear
                if stats is not None and name in stats.tenants else None)
        if not wear or not wear.get("page_writes"):
            raise ValueError(
                f"no attributed wear for {name!r} — run with "
                f"attribute_wear=True first")
        page_writes = {page: count
                       for page, count in wear["page_writes"].items()
                       if isinstance(page, int)}
        hot = sorted(page_writes.items(),
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
            router.swap(page, peer)
            swaps.append((page, peer))
            if bus.active:
                bus.mark(SECURITY_REMAP,
                         {"tenant": name, "page": page, "peer": peer})
        if swaps:
            self._invalidate_cache_all()
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
        policy = getattr(self.router, "policy", None)
        rebuilds = self.rebuild_status()
        report = {
            "num_shards": self.router.num_shards,
            "pages_per_shard": self.router.pages_per_shard,
            "service_pages": self.router.num_pages,
            "tenants": len(self.tenants),
            "seed": self.config.seed,
            "redundancy": {
                "policy": policy.name if policy else "none",
                "placement": self.router.placement,
                "write_fanout": policy.write_fanout if policy else 1,
                "survivable_bank_losses": (policy.survivable
                                           if policy else 0),
                "degraded": self.degraded,
                "remapped_pages": getattr(self.router,
                                          "remapped_pages", 0),
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
                "policy": self.config.cache_policy,
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
            controller = EnvyController(
                self.config.shard_config(),
                store_data=self.config.store_data)
            self._attach_copy_listener(index, controller)
            self._shards[index] = controller
        return self._shards[index]

    def _attach_copy_listener(self, bank: int,
                              controller: EnvyController) -> None:
        """Invalidate front-door cache entries whose Flash copy a
        cleaner relocation just moved (no-op without a cache)."""
        cache = self._page_cache
        if cache is None:
            return
        router = self.router
        events = self.events

        def on_copy(local: int) -> None:
            try:
                page = router.global_page(bank, local)
            except IndexError:
                return  # non-primary slot: never cached here
            if cache.invalidate(page) and events.active:
                events.mark(CACHE_INVALIDATE,
                            {"bank": bank, "page": page,
                             "reason": "clean"})

        controller.store.copy_listeners.append(on_copy)

    def _invalidate_cached(self, page: int, reason: str) -> None:
        """Drop one page from the front-door byte cache (no-op when
        no cache is configured or the page is not resident)."""
        cache = self._page_cache
        if cache is not None and cache.invalidate(page) \
                and self.events.active:
            self.events.mark(CACHE_INVALIDATE,
                             {"page": page, "reason": reason})

    def _invalidate_cache_all(self) -> None:
        """Flush the front-door cache on topology changes (bank kill /
        replace / heal, rebalance, hot-page scatter): routing moved,
        so cached bytes may no longer describe their logical page."""
        if self._page_cache is not None:
            dropped = self._page_cache.invalidate_all()
            if dropped and self.events.active:
                self.events.mark(CACHE_INVALIDATE,
                                 {"pages": dropped,
                                  "reason": "topology"})

    def _read_slot(self, slot: Tuple[int, int]) -> bytes:
        bank, local = slot
        return self.shard(bank).read(local * self.config.page_bytes,
                                     self.config.page_bytes)

    def _reconstruct_read(self, page: int, primary_bank: int) -> bytes:
        """Serve a read whose primary bank is dead from redundancy."""
        router = self.router
        states = self._bank_states
        parity = (isinstance(router, RedundantRouter)
                  and isinstance(router.policy, ParityPolicy))
        groups = (router.read_groups(page)
                  if isinstance(router, RedundantRouter) else [])
        for group in groups:
            # Only fully-healthy groups serve reads: a rebuilding bank
            # takes writes but is not trusted as a read source until
            # its rebuild verifies.
            if any(states[bank] != BANK_HEALTHY for bank, _ in group):
                continue
            if self.events.active:
                self.events.mark(REDUNDANCY_DEGRADED,
                                 {"page": page, "bank": primary_bank,
                                  "source": "read"})
            if not parity:
                return self._read_slot(group[0])
            value = bytearray(self.config.page_bytes)
            for slot in group:
                for i, byte in enumerate(self._read_slot(slot)):
                    value[i] ^= byte
            return bytes(value)
        raise DegradedModeError(
            f"page {page}: primary bank {primary_bank} is dead and no "
            f"fallback group survives — redundancy exhausted")

    def read_page(self, page: int) -> bytes:
        """Read one global logical page through its shard.

        While the primary bank is dead — or rebuilding, and therefore
        not yet trusted — the read is served transparently from a
        mirror copy or a parity reconstruction; only exhausted
        redundancy raises :class:`DegradedModeError`.
        """
        bank, local = self.router.route(page)
        if self._bank_states[bank] != BANK_HEALTHY:
            # Degraded reads bypass the cache: reconstruction is the
            # truth source while the primary is untrusted, and serving
            # stale DRAM would mask exactly the failures the
            # redundancy drills probe.
            return self._reconstruct_read(page, bank)
        cache = self._page_cache
        if cache is not None:
            entry = cache.lookup(page)
            if entry is not None and entry[2] is not None:
                return entry[2]
        data = self.shard(bank).read(local * self.config.page_bytes,
                                     self.config.page_bytes)
        if cache is not None:
            cache.admit(page, 0, data)
        return data

    def write_page(self, page: int, data: bytes) -> int:
        """Write one global logical page; returns nanoseconds taken.

        With redundancy enabled the write programs every live
        placement (mirror copies, or data + XOR parity maintained
        read-modify-write); a dead primary redirects into the
        surviving placements, and only exhausted redundancy raises
        :class:`DegradedModeError`.
        """
        page_bytes = self.config.page_bytes
        if len(data) > page_bytes:
            raise ValueError("data exceeds one page")
        self._invalidate_cached(page, "write")
        router = self.router
        if not isinstance(router, RedundantRouter):
            bank, local = router.route(page)
            return self.shard(bank).write(local * page_bytes, data)
        states = self._bank_states
        placements = router.placements(page)
        live = [slot for slot in placements
                if states[slot[0]] != BANK_DEAD]
        if not live:
            raise DegradedModeError(
                f"page {page}: every placement {placements} is on a "
                f"dead bank — redundancy exhausted")
        primary_bank, primary_local = placements[0]
        primary_dead = states[primary_bank] == BANK_DEAD
        if primary_dead and self.events.active:
            self.events.mark(REDUNDANCY_DEGRADED,
                             {"page": page, "bank": primary_bank,
                              "source": "write"})
        if not isinstance(router.policy, ParityPolicy):
            spent_ns = 0
            for bank, local in live:
                spent_ns += self.shard(bank).write(local * page_bytes,
                                                   data)
            return spent_ns
        # Parity: maintain real XOR parity.  The new page content is
        # the old content overlaid with ``data`` (controller writes
        # are read-modify-write at sub-page granularity), and
        # new_parity = old_parity ^ old_content ^ new_content.
        parity_slot = placements[1]
        parity_alive = states[parity_slot[0]] != BANK_DEAD
        # The old content must be trustworthy: a rebuilding primary may
        # still hold stale slots, so anything short of healthy
        # reconstructs the old value from the surviving stripe.
        old = (self._read_slot(placements[0])
               if states[primary_bank] == BANK_HEALTHY
               else self._reconstruct_read(page, primary_bank))
        new = data + old[len(data):]
        spent_ns = 0
        if not primary_dead:
            spent_ns += self.shard(primary_bank).write(
                primary_local * page_bytes, data)
        if parity_alive:
            old_parity = self._read_slot(parity_slot)
            new_parity = bytes(p ^ o ^ n for p, o, n
                               in zip(old_parity, old, new))
            spent_ns += self.shard(parity_slot[0]).write(
                parity_slot[1] * page_bytes, new_parity)
        return spent_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EnvyService({self.router.num_shards} shards x "
                f"{self.router.pages_per_shard} pages, "
                f"{len(self.tenants)} tenants)")
