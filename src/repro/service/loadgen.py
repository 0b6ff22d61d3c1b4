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

The schedule is a **stream** (:meth:`LoadGenerator.stream`).  A
tenant's draw, its unthrottled packed columns (arrivals, is-write
flags, pages), reads only the tenant index, its spec, ``end_ns``, the
seed, ``num_pages`` and ``page_bytes``, and only the spec and
``end_ns`` vary over the generator's life: it keeps its last stream's
draws per tenant under ``(spec, end_ns)`` (per drawn row 4 B arrival,
1-2 B page, 1 B coin), so a rerun of the same duration on one service
draws nothing and re-applies only the token buckets, as a 1 B keep flag
per row; a row's seq is its position in the unthrottled columns.  A
tenant without arrivals seeds no RNG.
Equal-width arrival-time windows of about :data:`WINDOW_ROWS` rows
slice, filter and ``zip`` the columns of the tenants with rows in them
and sort by arrival, so their concatenation
(:meth:`LoadGenerator.generate`) is the whole sorted schedule: no Python
statement runs per row, O(1) calls run per tenant with rows and per
(tenant, window) visit, and an idle tenant costs a memo lookup.

A request is a plain tuple ``(arrival_ns, tenant_index, seq, is_write,
global_page)``, partitioned by :class:`~repro.service.shard.ShardRouter`.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from itertools import chain, compress, repeat
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
                 page_bytes: int = 256, seed: int = 0) -> None:
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
        self.tenants = list(tenants)
        self.num_pages = num_pages
        self.page_bytes = page_bytes
        self.seed = seed
        self._layout = None  # built once, by the first TPC-A tenant
        #: The last stream's draws: tenant index -> ``(key, stamps,
        #: writes, pages)``, keyed on the spec and the end of the run.
        self._drawn: Dict[int, tuple] = {}

    def _checked_overrides(self, overrides: Optional[Mapping[str, float]]
                           ) -> Dict[str, float]:
        overrides = dict(overrides or {})
        # Written so that NaN fails it: a NaN bucket admits everything.
        if overrides and (set(overrides) - {t.name for t in self.tenants}
                          or not all(0 < rate < math.inf
                                     for rate in overrides.values())):
            raise ValueError(f"rate overrides {overrides} must be positive "
                             f"and finite, for known tenants")
        return overrides

    @staticmethod
    def _lifetime(spec: TenantSpec, end_ns: int) -> Tuple[int, int]:
        """``[start_ns, stop_ns)``: where the tenant may arrive."""
        stop_ns = end_ns if spec.depart_s is None else min(
            end_ns, int(spec.depart_s * 1e9))
        return int(spec.arrive_s * 1e9), stop_ns

    def _arrivals(self, spec: TenantSpec, rng: random.Random,
                  end_ns: int) -> array:
        """The tenant's arrival instants (sorted, < ``end_ns``), packed
        in the narrowest typecode holding ``end_ns``.  Churn: the tenant
        exists only in ``[arrive_s, depart_s)``; an open-loop burst
        schedule runs at ``burst_x``× rate inside each burst window."""
        arrivals = array(_typecode(end_ns))
        start_ns, stop_ns = self._lifetime(spec, end_ns)
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

    def _draw(self, index: int, spec: TenantSpec, end_ns: int
              ) -> Tuple[Sequence[int], object, Sequence[int]]:
        """The tenant's unthrottled columns ``(stamps, writes, pages)``
        up to ``end_ns``: one row per access, ``writes`` one bool when
        every coin agrees."""
        start_ns, stop_ns = self._lifetime(spec, end_ns)
        if stop_ns <= start_ns:
            return (), False, ()    # never arrives: seed no RNG
        rng = random.Random(derive_seed(self.seed, 2 * index))
        arrivals = self._arrivals(spec, rng, end_ns)
        # Single-row arrivals are their own stamp column.
        stamps = (arrivals if spec.workload != "tpca"
                  else array(arrivals.typecode))
        writes, pages = bytearray(), array(_typecode(self.num_pages))
        for chunk_stamps, chunk_writes, chunk_pages in self._columns(
                spec, rng, derive_seed(self.seed, 2 * index + 1), arrivals):
            if stamps is not arrivals:
                stamps.extend(chunk_stamps)
            pages.extend(chunk_pages)
            if chunk_writes.__class__ is bool:
                writes = chunk_writes   # every coin agrees
            else:
                writes.extend(chunk_writes)
        return stamps, writes, pages

    def generate(self, duration_s: float,
                 rate_overrides: Optional[Mapping[str, float]] = None
                 ) -> Tuple[List[Request], Dict[str, Dict[str, int]]]:
        """The merged schedule plus per-tenant offered/throttled counts:
        :meth:`stream`, concatenated."""
        windows, accounting = self.stream(duration_s, rate_overrides)
        return list(chain.from_iterable(windows)), accounting

    def stream(self, duration_s: float,
               rate_overrides: Optional[Mapping[str, float]] = None
               ) -> Tuple[Iterator[List[Request]],
                          Dict[str, Dict[str, int]]]:
        """The schedule as ``(windows, accounting)``: the non-empty
        arrival-time windows in order, and per-tenant offered/throttled
        counts, final on return.  Throttled accesses (token bucket
        empty at arrival) are dropped; everything yielded awaits
        shard-level admission control.  ``rate_overrides`` is the
        quarantine hook (repro.service.adversary): a tenant listed there
        is throttled to at most that rate at schedule time, so
        identically across reruns and ``jobs`` settings."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        end_ns = int(duration_s * 1e9)
        overrides = self._checked_overrides(rate_overrides)
        accounting: Dict[str, Dict[str, int]] = {}
        cursors: List[list] = []
        admitted = 0
        # Keep only what this stream uses.
        memo, self._drawn = self._drawn, {}
        for index, spec in enumerate(self.tenants):
            # Seed, pages and page size are the generator's for life.
            key = (spec, end_ns)
            entry = memo.pop(index, None)
            if entry is None or entry[0] != key:
                entry = None    # free a stale draw before drawing anew
                entry = (key, *self._draw(index, spec, end_ns))
            self._drawn[index] = entry
            _, stamps, writes, pages = entry
            rows = len(stamps)
            # No rows, no bucket; a bucket's verdicts are a keep mask.
            bucket = rows and spec.make_bucket(overrides.get(spec.name))
            keep = bucket and bytearray(map(bucket.allow, stamps))
            throttled = bucket.throttled if bucket else 0
            accounting[spec.name] = {"offered": rows,
                                     "throttled": throttled}
            if rows > throttled:
                admitted += rows - throttled
                cursors.append([index, 0, stamps, keep if throttled else None,
                                writes, pages])
        return self._windows(cursors, admitted, end_ns), accounting

    @staticmethod
    def _windows(cursors: List[list], admitted: int, end_ns: int
                 ) -> Iterator[List[Request]]:
        """Equal-width arrival-time windows of about :data:`WINDOW_ROWS`
        of the ``admitted`` rows, from ``[index, next row, stamps, keep,
        writes, pages]`` cursors, each filed under the window of its next
        row: O(1) calls per (cursor, window) visit."""
        windows = max(1, -(-admitted // WINDOW_ROWS))
        width = -(-end_ns // windows)
        # Window 0 refiles every cursor whose first row comes later.
        due: Dict[int, List[list]] = {0: cursors}
        for number in range(windows):
            edge_ns = (number + 1) * width
            window: List[Request] = []
            # In tenant index order (unique: lists compare on it alone).
            for cursor in sorted(due.pop(number, ())):
                index, start, stamps, keep, writes, pages = cursor
                stop = bisect_left(stamps, edge_ns, start)
                run = zip(stamps[start:stop], repeat(index),
                          range(start, stop),
                          repeat(writes) if writes.__class__ is bool
                          else map(truth, writes[start:stop]),
                          pages[start:stop])
                window += (run if keep is None
                           else compress(run, keep[start:stop]))
                if stop < len(stamps):
                    cursor[1] = stop
                    due.setdefault(stamps[stop] // width, []).append(cursor)
            if window:
                # Runs concatenated in tenant order, each in seq order:
                # a stable sort on the arrival alone is the (arrival,
                # tenant, seq) k-way merge, comparing ints, not tuples.
                window.sort(key=itemgetter(0))
                yield window
