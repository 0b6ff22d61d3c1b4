"""Deterministic multi-tenant load generator on the discrete-event clock.

Simulating "thousands of concurrent clients" means what the paper's
own evaluation does (Section 5.2): a discrete-event schedule of
timestamped requests, here merged from a list of
:class:`~repro.service.tenant.TenantSpec`\\ s:

* each tenant draws from its **own** seeded RNG streams
  (:func:`~repro.perf.sweep.derive_seed` over the tenant index), so
  adding or reordering tenants never perturbs another tenant's trace;
* per-tenant **token buckets** run during generation, on arrival
  timestamps alone, so throttling is part of the schedule, identical
  however the shards are later executed;
* the schedule is sorted by ``(arrival_ns, tenant_index, seq)``, a total
  order: it is a pure function of ``(tenants, duration, seed)``.

The schedule is a **stream** (:meth:`LoadGenerator.stream`): each
tenant is drawn once, whole, into packed columns (arrivals, pages,
is-write flags; seqs only where its bucket throttled), and its RNGs
and workload are freed.  Equal-width arrival-time windows of about
:data:`WINDOW_ROWS` rows slice and ``zip`` the columns of the tenants
with rows in them and sort by that key, so their concatenation
(:meth:`LoadGenerator.generate`) is the whole sorted schedule and no
Python statement runs per row.  Generation costs O(requests) time and
O(``WINDOW_ROWS``) memory plus, per admitted row, 4 B arrival, 1-2 B
page, +1 B coin and +4 B seq when throttled.

A request is a plain tuple ``(arrival_ns, tenant_index, seq, is_write,
global_page)``, partitioned by :class:`~repro.service.shard.ShardRouter`.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from itertools import chain, compress, count, repeat
from operator import itemgetter, truth
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..perf.sweep import derive_seed
from ..workloads.uniform import UniformWorkload
from ..workloads.zipf import ZipfWorkload
from .tenant import TenantSpec

__all__ = ["Request", "LoadGenerator", "WINDOW_ROWS"]

#: One service request: (arrival_ns, tenant_index, seq, is_write, page).
Request = Tuple[int, int, int, bool, int]

#: Target rows per streamed window: ~1 MB of tuples, drawn, routed,
#: replayed and freed while still in the CPU's L2 (measured: 2k-16k rows
#: run 3-8% faster than one whole window, 32k-128k rows 4-10% slower).
#: Also the most arrivals one draw call takes.
WINDOW_ROWS = 4_096


def _typecode(bound: int) -> str:
    """The narrowest array typecode holding every int in ``[0, bound)``."""
    return next((code for code in "BHI"
                 if bound <= 1 << 8 * array(code).itemsize), "q")


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
        if rate_overrides and (set(rate_overrides) - set(names)
                               or min(rate_overrides.values()) <= 0):
            raise ValueError(f"rate overrides {dict(rate_overrides)} must "
                             f"be positive, for known tenants")
        self.tenants = list(tenants)
        self.num_pages = num_pages
        self.page_bytes = page_bytes
        self.seed = seed
        #: Quarantine hook (repro.service.adversary): a tenant listed
        #: here is throttled to at most this rate at schedule time, so
        #: identically across reruns and ``jobs`` settings.
        self.rate_overrides = dict(rate_overrides or {})
        self._layout = None  # built once, by the first TPC-A tenant

    def _arrivals(self, spec: TenantSpec, rng: random.Random,
                  end_ns: int) -> array:
        """The tenant's arrival instants (sorted, < ``end_ns``), packed
        in the narrowest typecode holding ``end_ns``.  Churn: the tenant
        exists only in ``[arrive_s, depart_s)``; an open-loop burst
        schedule runs at ``burst_x``× rate inside each burst window."""
        arrivals = array(_typecode(end_ns))
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
            # service-time estimate (not execution feedback: TenantSpec).
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
                 page_seed: int, arrivals: array
                 ) -> Iterator[Tuple[Sequence[int], object, List[int]]]:
        """The tenant's rows as *columns* ``(stamps, writes, pages)``, a
        stretch of at most :data:`WINDOW_ROWS` arrivals at a time.
        ``stamps`` repeats a TPC-A arrival (a whole transaction) once per
        access; ``writes`` is one bool when every coin agrees.  Coins come
        from ``rng`` and pages from a generator seeded with ``page_seed``,
        so any split consumes both streams as one row at a time would."""
        stretches = [(start, min(start + WINDOW_ROWS, len(arrivals)))
                     for start in range(0, len(arrivals), WINDOW_ROWS)]
        if not stretches:
            return      # no arrivals: build no workload
        if spec.workload == "tpca":
            from ..db.layout import TpcaLayout
            from ..workloads.tpca import TpcaWorkload
            if self._layout is None:
                self._layout = TpcaLayout.sized_for(
                    self.num_pages * self.page_bytes)
            workload = TpcaWorkload(self._layout,
                                    rate_tps=max(spec.rate_tps, 1.0),
                                    seed=page_seed)
            page_bytes, last_page = self.page_bytes, self.num_pages - 1
            for start, stop in stretches:
                # The transactions' own arrival times are unused.
                traces = [workload.accesses(workload.next_transaction())
                          for _ in range(stop - start)]
                stamps = list(chain.from_iterable(map(
                    repeat, arrivals[start:stop], map(len, traces))))
                writes, addresses = zip(*chain.from_iterable(traces))
                yield stamps, writes, [min(address // page_bytes, last_page)
                                       for address in addresses]
            return
        base, end = spec.page_range or (0, self.num_pages)
        span = end - base
        coin, write_fraction = rng.random, spec.write_fraction
        if spec.workload in ("hammer", "squat", "clean_amp"):
            # Attack shapes (see TenantSpec) are pure functions of the
            # access index plus one seeded placement draw, so an attack
            # replays bit-identically — the detector benchmarks and the
            # mitigation gates depend on it.
            placement_rng = random.Random(page_seed)
            if spec.workload == "clean_amp":
                # Golden-ratio stride, bumped to the next value coprime
                # with the span: a full-period sweep with maximal
                # distance between consecutive writes.
                stride = max(1, round(span * 0.6180339887498949))
                while math.gcd(stride, span) != 1:
                    stride += 1
                first, cycle = base, span
                offset = placement_rng.randrange(span)
            else:
                # hammer / squat: cycle over a contiguous run of
                # ``attack_pages`` pages, which stripes round-robin into
                # even per-shard working sets.
                stride, offset = 1, 0
                cycle = max(1, min(spec.attack_pages, span))
                first = base + placement_rng.randrange(span - cycle + 1)

            def next_pages(start: int, stop: int) -> List[int]:
                return [first + (offset + index * stride) % cycle
                        for index in range(start, stop)]
        else:
            pages = (ZipfWorkload(span, skew=spec.skew, seed=page_seed,
                                  scatter=spec.scatter)
                     if spec.workload == "zipf"
                     else UniformWorkload(span, seed=page_seed))

            def next_pages(start: int, stop: int) -> List[int]:
                drawn = pages.next_pages(stop - start)
                return [base + page for page in drawn] if base else drawn

        for start, stop in stretches:
            # One bool when every coin agrees: nothing else reads them.
            writes = ([coin() < write_fraction for _ in range(stop - start)]
                      if 0.0 < write_fraction < 1.0 else write_fraction > 0.0)
            yield arrivals[start:stop], writes, next_pages(start, stop)

    def generate(self, duration_s: float
                 ) -> Tuple[List[Request], Dict[str, Dict[str, int]]]:
        """The merged schedule plus per-tenant offered/throttled counts:
        :meth:`stream`, concatenated."""
        windows, accounting = self.stream(duration_s)
        return list(chain.from_iterable(windows)), accounting

    def stream(self, duration_s: float
               ) -> Tuple[Iterator[List[Request]],
                          Dict[str, Dict[str, int]]]:
        """The schedule as ``(windows, accounting)``: the non-empty
        arrival-time windows in order, and per-tenant offered/throttled
        counts, final on return since every tenant is drawn here.  Holds
        O(:data:`WINDOW_ROWS`) plus, per admitted row, 4 B arrival, 1-2 B
        page, +1 B coin and +4 B seq if throttled.  Throttled accesses
        (token bucket empty at arrival) are dropped; everything yielded
        awaits shard-level admission control."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        end_ns = int(duration_s * 1e9)
        accounting: Dict[str, Dict[str, int]] = {}
        drawn: List[list] = []
        for index, spec in enumerate(self.tenants):
            rng = random.Random(derive_seed(self.seed, 2 * index))
            arrivals = self._arrivals(spec, rng, end_ns)
            bucket = spec.make_bucket(self.rate_overrides.get(spec.name))
            # Unthrottled single-row arrivals are their own stamp column.
            stamps = (arrivals if bucket is None and spec.workload != "tpca"
                      else array(arrivals.typecode))
            seqs, writes, pages = (array("I"), bytearray(),
                                   array(_typecode(self.num_pages)))
            for chunk in self._columns(
                    spec, rng, derive_seed(self.seed, 2 * index + 1),
                    arrivals):
                if bucket is not None:
                    # A throttled row is dropped with the seq it took.
                    seq = bucket.allowed + bucket.throttled
                    kept = list(map(bucket.allow, chunk[0]))
                    seqs.extend(compress(count(seq), kept))
                    chunk = [column if column.__class__ is bool
                             else compress(column, kept) for column in chunk]
                chunk_stamps, chunk_writes, chunk_pages = chunk
                if stamps is not arrivals:
                    stamps.extend(chunk_stamps)
                pages.extend(chunk_pages)
                if chunk_writes.__class__ is bool:
                    writes = chunk_writes   # every coin agrees
                else:
                    writes.extend(chunk_writes)
            throttled = 0 if bucket is None else bucket.throttled
            accounting[spec.name] = {"offered": len(pages) + throttled,
                                     "throttled": throttled}
            if pages:
                # An unthrottled row's seq is its position.
                drawn.append([index, 0, stamps, seqs if throttled else None,
                              writes, pages])
        return self._windows(drawn, end_ns), accounting

    @staticmethod
    def _windows(drawn: List[list], end_ns: int
                 ) -> Iterator[List[Request]]:
        """Equal-width arrival-time windows of about :data:`WINDOW_ROWS`
        rows from ``[index, next row, stamps, seqs, writes, pages]``
        cursors, each filed under the window of its next row."""
        windows = max(1, -(-sum(len(c[5]) for c in drawn) // WINDOW_ROWS))
        width = -(-end_ns // windows)
        # Window 0 refiles every cursor whose first row comes later.
        due: Dict[int, List[list]] = {0: drawn}
        for number in range(windows):
            edge_ns = (number + 1) * width
            window: List[Request] = []
            # In tenant index order (unique: lists compare on it alone).
            for cursor in sorted(due.pop(number, ())):
                index, start, stamps, seqs, writes, pages = cursor
                stop = bisect_left(stamps, edge_ns, start)
                window += zip(
                    stamps[start:stop], repeat(index),
                    range(start, stop) if seqs is None else seqs[start:stop],
                    repeat(writes) if writes.__class__ is bool
                    else map(truth, writes[start:stop]),
                    pages[start:stop])
                if stop < len(stamps):
                    cursor[1] = stop
                    due.setdefault(stamps[stop] // width, []).append(cursor)
            if window:
                # Runs concatenated in tenant order, each in seq order:
                # a stable sort on the arrival alone is the (arrival,
                # tenant, seq) k-way merge, comparing ints, not tuples.
                window.sort(key=itemgetter(0))
                yield window
