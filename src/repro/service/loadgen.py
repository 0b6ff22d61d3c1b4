"""Deterministic multi-tenant load generator on the discrete-event clock.

Simulating "thousands of concurrent clients" in Python cannot mean
thousands of threads — it means what the paper's own evaluation does
(Section 5.2): a discrete-event schedule of timestamped requests.  The
generator turns a list of :class:`~repro.service.tenant.TenantSpec`\\ s
into one merged, time-ordered request schedule:

* each tenant draws from its **own** seeded RNG streams
  (:func:`~repro.perf.sweep.derive_seed` over the tenant index, the
  same decorrelation the sweep runner uses per point), so adding or
  reordering tenants never perturbs another tenant's trace;
* per-tenant **token buckets** run during generation, on arrival
  timestamps alone — throttling decisions are part of the schedule,
  not of execution, which keeps them identical however the shards are
  later executed;
* the merged schedule is sorted by ``(arrival_ns, tenant_index, seq)``
  — a total order with a deterministic tie-break, so the request list
  is a pure function of ``(tenants, duration, seed)``.

Generation costs O(requests): each tenant's accesses are drawn, rate
limited and appended as final request tuples in one pass, and the
per-tenant runs (each already in arrival order) are merged by one sort.

A request is a plain tuple ``(arrival_ns, tenant_index, seq, is_write,
global_page)`` — picklable, compact, and directly partitionable by the
:class:`~repro.service.shard.ShardRouter`.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..perf.sweep import derive_seed
from ..workloads.uniform import UniformWorkload
from ..workloads.zipf import ZipfWorkload
from .tenant import TenantSpec, TokenBucket

__all__ = ["Request", "LoadGenerator"]

#: One service request: (arrival_ns, tenant_index, seq, is_write, page).
Request = Tuple[int, int, int, bool, int]


class LoadGenerator:
    """Builds the merged request schedule for a set of tenants."""

    def __init__(self, tenants: Sequence[TenantSpec], num_pages: int,
                 page_bytes: int = 256, seed: int = 0,
                 rate_overrides: Optional[Mapping[str, float]] = None
                 ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if num_pages < 1:
            raise ValueError("need at least one page")
        for tenant in tenants:
            tenant.validate()
            if (tenant.page_range is not None
                    and tenant.page_range[1] > num_pages):
                raise ValueError(
                    f"tenant {tenant.name!r} page_range "
                    f"{tenant.page_range} exceeds the {num_pages}-page "
                    f"service space")
        if rate_overrides:
            unknown = set(rate_overrides) - set(names)
            if unknown:
                raise ValueError(
                    f"rate overrides for unknown tenants {sorted(unknown)}")
            for name, rate in rate_overrides.items():
                if rate <= 0:
                    raise ValueError(
                        f"rate override for {name!r} must be positive")
        self.tenants = list(tenants)
        self.num_pages = num_pages
        self.page_bytes = page_bytes
        self.seed = seed
        #: Quarantine hook (repro.service.adversary): a tenant listed
        #: here gets a token bucket at the given rate regardless of its
        #: own ``rate_limit_tps``, applied at schedule time like every
        #: other admission decision — so a quarantined tenant's traffic
        #: is degraded identically across reruns and ``jobs`` settings.
        self.rate_overrides = dict(rate_overrides or {})
        self._layout = None  # built lazily for TPC-A tenants

    # ------------------------------------------------------------------
    # Per-tenant streams
    # ------------------------------------------------------------------

    def _tpca_layout(self):
        if self._layout is None:
            from ..db.layout import TpcaLayout

            self._layout = TpcaLayout.sized_for(
                self.num_pages * self.page_bytes)
        return self._layout

    def _arrivals(self, spec: TenantSpec, rng: random.Random,
                  end_ns: int) -> List[int]:
        """The tenant's arrival instants (sorted, < ``end_ns``).

        Churn: the tenant exists only in ``[arrive_s, depart_s)``, and
        open-loop tenants with a burst schedule run at ``burst_x``× rate
        inside each burst window.  The default spec (arrive at 0, never
        depart, no bursts) draws the exact same RNG sequence as before
        churn existed, so legacy schedules are bit-identical.
        """
        arrivals: List[int] = []
        start_ns = int(spec.arrive_s * 1e9)
        stop_ns = end_ns if spec.depart_s is None else min(
            end_ns, int(spec.depart_s * 1e9))
        if stop_ns <= start_ns:
            return arrivals
        if spec.mode == "open":
            mean_ns = 1e9 / spec.rate_tps
            burst_every = burst_len = 0
            if spec.burst_every_s is not None and spec.burst_s > 0:
                burst_every = int(spec.burst_every_s * 1e9)
                burst_len = int(spec.burst_s * 1e9)
            clock = float(start_ns)
            while True:
                gap = rng.expovariate(1.0) * mean_ns
                if burst_every and \
                        (int(clock) - start_ns) % burst_every < burst_len:
                    # Inside a burst window the offered rate is
                    # burst_x×, i.e. inter-arrival gaps shrink.
                    gap /= spec.burst_x
                clock += gap
                if clock >= stop_ns:
                    break
                arrivals.append(int(clock))
        else:
            # Closed loop: each client alternates think time and a fixed
            # service-time estimate.  The estimate (not execution
            # feedback) schedules the next request, so the schedule is
            # execution-independent — see TenantSpec.
            for client in range(spec.clients):
                # Stagger session starts across one think interval.
                clock = start_ns + (client * max(1, spec.think_ns)) / max(
                    1, spec.clients)
                while True:
                    clock += (rng.expovariate(1.0) * spec.think_ns
                              + spec.service_estimate_ns)
                    if clock >= stop_ns:
                        break
                    arrivals.append(int(clock))
            arrivals.sort()
        return arrivals

    def _accesses(self, spec: TenantSpec, rng: random.Random,
                  page_seed: int, arrivals: List[int]
                  ) -> Iterator[Tuple[int, bool, int]]:
        """Expand arrivals into ``(arrival_ns, is_write, page)`` rows,
        drawn one at a time as the caller consumes them."""
        if spec.workload == "tpca":
            from ..workloads.tpca import TpcaWorkload

            layout = self._tpca_layout()
            workload = TpcaWorkload(layout, rate_tps=max(spec.rate_tps, 1.0),
                                    seed=page_seed)
            last_page = self.num_pages - 1
            for arrival in arrivals:
                txn = workload.next_transaction()  # arrival time unused
                for is_write, address in workload.accesses(txn):
                    page = min(address // self.page_bytes, last_page)
                    yield arrival, is_write, page
            return
        base = 0
        span = self.num_pages
        if spec.page_range is not None:
            base, end = spec.page_range
            span = end - base
        write_fraction = spec.write_fraction
        if spec.workload in ("hammer", "squat", "clean_amp"):
            # Attack shapes are pure functions of the access index plus
            # one seeded placement draw, so an attack replays
            # bit-identically — the property the detector benchmarks
            # and the mitigation gates depend on.
            placement_rng = random.Random(page_seed)
            if spec.workload == "clean_amp":
                # Golden-ratio stride, bumped to the next value coprime
                # with the span: a full-period sweep with maximal
                # distance between consecutive writes.  Nothing dwells
                # in SRAM long enough to coalesce and no segment ever
                # looks cold to a locality cleaner — close to the
                # worst-case cleaning cost per admitted byte.
                stride = max(1, round(span * 0.6180339887498949))
                while math.gcd(stride, span) != 1:
                    stride += 1
                offset = placement_rng.randrange(span)
                for index, arrival in enumerate(arrivals):
                    is_write = rng.random() < write_fraction
                    page = base + (offset + index * stride) % span
                    yield arrival, is_write, page
                return
            # hammer / squat: cycle over a contiguous run of
            # ``attack_pages`` pages.  Contiguous global pages stripe
            # round-robin across shards, so the run splits evenly into
            # per-shard working sets: sized just past one buffer's
            # coalescing reach it becomes targeted wear-out (every
            # write misses SRAM and flushes back toward the same few
            # segments); sized to the buffer capacity itself it becomes
            # occupancy squatting (the cycle pins every FIFO slot).
            working_set = max(1, min(spec.attack_pages, span))
            start = placement_rng.randrange(span - working_set + 1)
            for index, arrival in enumerate(arrivals):
                is_write = rng.random() < write_fraction
                page = base + start + index % working_set
                yield arrival, is_write, page
            return
        if spec.workload == "zipf":
            pages = ZipfWorkload(span, skew=spec.skew, seed=page_seed,
                                 scatter=spec.scatter)
        else:
            pages = UniformWorkload(span, seed=page_seed)
        for arrival in arrivals:
            is_write = rng.random() < write_fraction
            yield arrival, is_write, base + pages.next_page()

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------

    def generate(self, duration_s: float
                 ) -> Tuple[List[Request], Dict[str, Dict[str, int]]]:
        """The merged schedule plus per-tenant offered/throttled counts.

        Throttled accesses (token bucket empty at arrival) are counted
        and dropped here; everything returned was *admitted* by the
        rate-limit layer and awaits shard-level admission control.
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        end_ns = int(duration_s * 1e9)
        schedule: List[Request] = []
        accounting: Dict[str, Dict[str, int]] = {}
        for index, spec in enumerate(self.tenants):
            arrival_rng = random.Random(derive_seed(self.seed, 2 * index))
            page_seed = derive_seed(self.seed, 2 * index + 1)
            override = self.rate_overrides.get(spec.name)
            if override is not None:
                # Quarantine: the degraded bucket replaces (never
                # relaxes) the tenant's own rate limit.
                if spec.rate_limit_tps is not None:
                    override = min(override, spec.rate_limit_tps)
                bucket = TokenBucket(override, spec.burst)
            else:
                bucket = spec.make_bucket()
            arrivals = self._arrivals(spec, arrival_rng, end_ns)
            admitted_before = len(schedule)
            throttled = 0
            for seq, (arrival, is_write, page) in enumerate(
                    self._accesses(spec, arrival_rng, page_seed, arrivals)):
                if bucket is not None and not bucket.allow(arrival):
                    throttled += 1
                    continue
                schedule.append((arrival, index, seq, is_write, page))
            accounting[spec.name] = {
                "offered": len(schedule) - admitted_before + throttled,
                "throttled": throttled,
            }
        # Each tenant's run is already in arrival order and the keys
        # (arrival, tenant, seq) are unique, so sorting the concatenation
        # is the k-way merge: timsort finds the runs and never compares
        # past seq.
        schedule.sort()
        return schedule, accounting
