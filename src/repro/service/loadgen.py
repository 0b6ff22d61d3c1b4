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

The schedule is a **stream** (:meth:`LoadGenerator.stream`): equal-width
arrival-time windows of about :data:`WINDOW_ROWS` rows, each sorted by
that key, so their concatenation (:meth:`LoadGenerator.generate`) is the
whole sorted schedule.  A ``bisect`` on a tenant's arrival instants (one
packed ``array('q')``, the only structure that grows with the run) says
how many rows the next window takes; the tenant draws that many as
*columns* (is-write flags, pages: one comprehension each) and ``zip``
builds the row tuples, so no Python statement runs per row.  Generation
costs O(requests) time and O(window + 8 B per arrival) memory.

A request is a plain tuple ``(arrival_ns, tenant_index, seq, is_write,
global_page)`` — picklable, compact, and directly partitionable by the
:class:`~repro.service.shard.ShardRouter`.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..perf.sweep import derive_seed
from ..workloads.uniform import UniformWorkload
from ..workloads.zipf import ZipfWorkload
from .tenant import TenantSpec, TokenBucket

__all__ = ["Request", "LoadGenerator", "WINDOW_ROWS", "TENANT_ROWS"]

#: One service request: (arrival_ns, tenant_index, seq, is_write, page).
Request = Tuple[int, int, int, bool, int]

#: Target rows per streamed window: ~1 MB of tuples, drawn, routed,
#: replayed and freed while still in the CPU's L2 (measured: 2k-16k rows
#: run 3-8% faster than one whole window, 32k-128k rows 4-10% slower)...
WINDOW_ROWS = 4_096
#: ...but at least this many per tenant with traffic: every window visits
#: every such tenant, a cost that must vanish against the rows it draws.
TENANT_ROWS = 64
#: Nominal rows of one TPC-A arrival (a whole transaction), for sizing.
TPCA_TXN_ROWS = 17


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
                  end_ns: int) -> array:
        """The tenant's arrival instants (sorted, < ``end_ns``), packed
        8 bytes each.

        Churn: the tenant exists only in ``[arrive_s, depart_s)``, and
        open-loop tenants with a burst schedule run at ``burst_x``× rate
        inside each burst window.  The default spec (arrive at 0, never
        depart, no bursts) draws the exact same RNG sequence as before
        churn existed, so legacy schedules are bit-identical.
        """
        arrivals = array("q")
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
            uniform, log, append = rng.random, math.log, arrivals.append
            while True:
                # rng.expovariate(1.0), spelt out to save its call.
                gap = -log(1.0 - uniform()) * mean_ns
                if burst_every and \
                        (int(clock) - start_ns) % burst_every < burst_len:
                    # Inside a burst window the offered rate is
                    # burst_x×, i.e. inter-arrival gaps shrink.
                    gap /= spec.burst_x
                clock += gap
                if clock >= stop_ns:
                    break
                append(int(clock))
        else:
            # Closed loop: each client alternates think time and a fixed
            # service-time estimate.  The estimate (not execution
            # feedback) schedules the next request, so the schedule is
            # execution-independent — see TenantSpec.
            instants: List[int] = []
            for client in range(spec.clients):
                # Stagger session starts across one think interval.
                clock = start_ns + (client * max(1, spec.think_ns)) / max(
                    1, spec.clients)
                while True:
                    clock += (rng.expovariate(1.0) * spec.think_ns
                              + spec.service_estimate_ns)
                    if clock >= stop_ns:
                        break
                    instants.append(int(clock))
            arrivals.extend(sorted(instants))
        return arrivals

    def _columns(self, spec: TenantSpec, rng: random.Random,
                 page_seed: int, arrivals: array) -> Callable:
        """The tenant's rows, a window at a time and as *columns*:
        ``draw(start, stop)`` returns ``(stamps, writes, pages)`` for
        ``arrivals[start:stop]``.  ``stamps`` is that slice itself, except
        that a TPC-A arrival is a whole transaction and repeats its
        instant once per access.  Is-write draws come from ``rng`` and
        page draws from a generator seeded with ``page_seed``, so drawing
        a window of one and then a window of the other consumes both
        streams exactly as one row at a time would."""
        if spec.workload == "tpca":
            from ..workloads.tpca import TpcaWorkload

            workload = TpcaWorkload(self._tpca_layout(),
                                    rate_tps=max(spec.rate_tps, 1.0),
                                    seed=page_seed)
            transaction, accesses = (workload.next_transaction,
                                     workload.accesses)
            page_bytes, last_page = self.page_bytes, self.num_pages - 1

            def draw_transactions(start: int, stop: int):
                # The transactions' own arrival times are unused.
                traces = [accesses(transaction())
                          for _ in range(stop - start)]
                stamps = list(chain.from_iterable(map(
                    repeat, arrivals[start:stop], map(len, traces))))
                writes, addresses = zip(*chain.from_iterable(traces))
                return stamps, writes, [min(address // page_bytes, last_page)
                                        for address in addresses]
            return draw_transactions
        base = 0
        span = self.num_pages
        if spec.page_range is not None:
            base, end = spec.page_range
            span = end - base
        coin, write_fraction = rng.random, spec.write_fraction
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
                first, cycle = base, span
                offset = placement_rng.randrange(span)
            else:
                # hammer / squat: cycle over a contiguous run of
                # ``attack_pages`` pages.  Contiguous global pages stripe
                # round-robin across shards, so the run splits evenly into
                # per-shard working sets: sized just past one buffer's
                # coalescing reach it becomes targeted wear-out (every
                # write misses SRAM and flushes back toward the same few
                # segments); sized to the buffer capacity itself it becomes
                # occupancy squatting (the cycle pins every FIFO slot).
                stride, offset = 1, 0
                cycle = max(1, min(spec.attack_pages, span))
                first = base + placement_rng.randrange(span - cycle + 1)

            def next_pages(start: int, stop: int) -> List[int]:
                return [first + (offset + index * stride) % cycle
                        for index in range(start, stop)]
        else:
            if spec.workload == "zipf":
                pages = ZipfWorkload(span, skew=spec.skew, seed=page_seed,
                                     scatter=spec.scatter)
            else:
                pages = UniformWorkload(span, seed=page_seed)

            def next_pages(start: int, stop: int) -> List[int]:
                drawn = pages.next_pages(stop - start)
                return [base + page for page in drawn] if base else drawn

        def draw(start: int, stop: int):
            if 0.0 < write_fraction < 1.0:
                writes = [coin() < write_fraction
                          for _ in range(stop - start)]
            else:
                # Every coin agrees, and nothing else reads this stream.
                writes = repeat(write_fraction > 0.0)
            return arrivals[start:stop], writes, next_pages(start, stop)
        return draw

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------

    def generate(self, duration_s: float
                 ) -> Tuple[List[Request], Dict[str, Dict[str, int]]]:
        """The merged schedule plus per-tenant offered/throttled counts:
        :meth:`stream`, concatenated."""
        windows, accounting = self.stream(duration_s)
        return list(chain.from_iterable(windows)), accounting

    def stream(self, duration_s: float
               ) -> Tuple[Iterator[List[Request]],
                          Dict[str, Dict[str, int]]]:
        """The schedule as ``(windows, accounting)``: ``windows`` yields
        the non-empty arrival-time windows in order, ``accounting``
        (per-tenant offered/throttled counts) grows as they are drawn.
        Throttled accesses (token bucket empty at arrival) are counted
        and dropped here; everything yielded was *admitted* by the
        rate-limit layer and awaits shard-level admission control."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        end_ns = int(duration_s * 1e9)
        accounting: Dict[str, Dict[str, int]] = {}
        cursors: List[list] = []
        expected = 0
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
            counts = accounting[spec.name] = {"offered": 0, "throttled": 0}
            if not arrivals:
                continue
            expected += len(arrivals) * (
                TPCA_TXN_ROWS if spec.workload == "tpca" else 1)
            draw = self._columns(spec, arrival_rng, page_seed, arrivals)
            # [next arrival, tenant, arrivals, draw, bucket, counts]
            cursors.append([0, index, arrivals, draw, bucket, counts])
        return self._windows(cursors, end_ns, expected), accounting

    def _windows(self, cursors: List[list], end_ns: int, expected: int
                 ) -> Iterator[List[Request]]:
        target = max(WINDOW_ROWS, TENANT_ROWS * len(cursors))
        width = max(1, -(-end_ns // max(1, -(-expected // target))))
        for edge_ns in range(width, end_ns + width, width):
            window: List[Request] = []
            for cursor in cursors:
                start, index, arrivals, draw, bucket, counts = cursor
                stop = bisect_left(arrivals, edge_ns, start)
                if stop == start:
                    continue
                cursor[0] = stop
                stamps, writes, pages = draw(start, stop)
                # A throttled row is dropped with the seq it consumed.
                rows = zip(stamps, repeat(index), count(counts["offered"]),
                           writes, pages)
                counts["offered"] += len(pages)
                if bucket is None:
                    window += rows
                else:
                    window += compress(rows, map(bucket.allow, stamps))
                    counts["throttled"] = bucket.throttled
            if window:
                # The window is the tenants' runs concatenated in tenant
                # index order, each run in seq order and so in arrival
                # order.  A stable sort on the arrival alone is therefore
                # the (arrival, tenant, seq) k-way merge: ties keep that
                # order, and the sort compares ints, never tuples.
                window.sort(key=itemgetter(0))
                yield window
