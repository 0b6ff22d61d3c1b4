"""Per-shard request execution: queueing, admission, batching.

One :class:`ShardExecutor` owns one :class:`~repro.core.controller.
EnvyController` and replays that shard's slice of the service schedule
as a single-server queue on the simulated clock — whole (``run``) or a
stretch at a time as the schedule streams in (``start`` / ``feed`` /
``finish``; any split replays identically):

* **bounded queue** — a request arriving while ``queue_capacity``
  earlier requests are still waiting or in service is rejected
  (``service.reject`` mark, per-tenant counter).  The completion-time
  deque makes queue depth exact without simulating the queue
  structurally.
* **admission control / backpressure** — before a write is served, the
  shard checks its cleaner debt: write-buffer occupancy at or past the
  hard watermark sheds the write (the cleaner has lost the race;
  letting the write in would only deepen the stall), occupancy past
  the soft watermark delays it by a throttle penalty (``service.
  throttle``).  Reads always pass — they never create Flash work.
* **write batching** — the SRAM write buffer is the batching device
  (Section 3.2): back-to-back writes coalesce in SRAM and flush as
  segment-sized programs.  The executor counts batch boundaries (a
  batch is a maximal run of requests served without an idle gap,
  capped at ``BATCH_PAGES``) and emits ``service.batch`` spans, and
  reports how many writes coalesced into already-buffered pages.
* **background work** — an idle gap that owes flush work or finds the
  buffer over its threshold goes to :meth:`~repro.core.controller.
  EnvyController.background_work`, as in :class:`~repro.sim.engine.
  TimedSimulator` (a flush chain started late in a gap completes later).
* **bounded retry** — with ``retry_limit > 0``, a queue-full rejection
  is converted into a deferred retry at ``arrival +
  retry_backoff_ns * 2^attempt`` instead of surfacing to the tenant.
  Retries live on a schedule-time heap merged with the arrival stream
  by ``(time, tenant, seq)``, so the replay order — and therefore
  every metric — is a pure function of the slice, bit-identical
  across reruns and ``jobs`` settings.  A request that exhausts its
  retries is rejected as before; latency is measured from the
  *original* arrival, so retried requests honestly fatten the tail.

Every knob named above is the :class:`~repro.service.frontend.
ServiceConfig` field of that name, declared, defaulted and checked
there; an executor takes the config whole, plus the per-run inputs
(tenant names, wear budgets, cache-tier flags and caps, tracing).

Everything the executor returns is a plain picklable dict, because
:func:`service_shard_point` is the ``"module:function"`` worker
:func:`~repro.perf.sweep.run_sweep` dispatches to processes — shard
results must cross a process boundary and merge deterministically.
Per-tenant counters are columns indexed by tenant number
(``result["columns"]``, :data:`TENANT_COUNTERS`); latencies fold, every
``WINDOW_ROWS`` rows fed, into the histogram pairs the executor is
handed (:meth:`ShardExecutor.start`), visiting only the tenants with
pending samples, so a tenant without rows costs no call.
Pseudo-tenants (``"__"`` names: redundancy and rebuild traffic) are
counted, never recorded, never cached.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import compress, repeat
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.controller import EnvyController
from ..obs.events import (CACHE_EVICT, CACHE_HIT, CACHE_INVALIDATE,
                          CACHE_MISS, SERVICE_BATCH, SERVICE_REJECT,
                          SERVICE_REQUEST, SERVICE_RETRY, SERVICE_THROTTLE,
                          ObsEvent)
from ..obs.hist import LatencyHistogram
from ..perf.sweep import derive_seed
from .cache import DRAM_READ_NS, REF, PageCache
from . import loadgen

if TYPE_CHECKING:
    from .frontend import ServiceConfig

__all__ = ["ShardExecutor", "service_shard_point", "BATCH_PAGES",
           "THROTTLE_PENALTY_NS", "TENANT_COUNTERS"]

_WORD = 8
_WORD_PAYLOAD = b"\x00" * _WORD

#: Batch-boundary cap of the write-batching accounting, in requests.
BATCH_PAGES = 16
#: Delay charged to each write admitted past the soft watermark.
THROTTLE_PENALTY_NS = 2000
#: The controller busy buckets a traced request's stall is split over.
_STALLS = ("flush", "clean", "erase", "retry", "checkpoint")

#: One tenant's served-latency histograms: (reads, writes).
LatencyPair = Tuple[LatencyHistogram, LatencyHistogram]

#: The per-tenant counter columns of a shard result, each named as the
#: :class:`~repro.service.tenant.TenantStats` attribute it sums into.
#: ``rejected`` counts queue and shed refusals, not wear-budget ones.
TENANT_COUNTERS = ("reads", "writes", "rejected", "rejected_queue",
                   "rejected_shed", "rejected_wear", "delayed", "retried",
                   "cache_hits", "cache_misses")


class ShardExecutor:
    """Replays one shard's request slice against its controller."""

    def __init__(self, controller: EnvyController, shard_index: int,
                 tenant_names: Sequence[str], config: ServiceConfig, *,
                 wear_budgets: Optional[Sequence[Optional[int]]] = None,
                 cache_tenants: Optional[Sequence[bool]] = None,
                 cache_tenant_caps: Optional[Sequence[Optional[int]]]
                 = None,
                 trace: bool = False,
                 stamp_payloads: bool = False) -> None:
        # The service-wide knobs — queue, watermarks, retries, wear
        # attribution, cache size — are the config's, checked there.
        config.validate()
        self.controller = controller
        self.shard_index = shard_index
        self.tenant_names = list(tenant_names)
        self.config = config
        #: Stamp each write with a distinct 8-byte running count (the
        #: chaos oracle needs distinguishable committed payloads).
        self.stamp_payloads = stamp_payloads
        for label, column in (("wear_budgets", wear_budgets),
                              ("cache_tenants", cache_tenants),
                              ("cache_tenant_caps", cache_tenant_caps)):
            if column is not None and len(column) != len(self.tenant_names):
                raise ValueError(f"{label} must align with tenant_names")
        #: Per-tenant cap on admitted writes per logical page (aligned
        #: with ``tenant_names``; None entries are unlimited).  Enforced
        #: at admission: a write past the cap is rejected with reason
        #: ``wear_budget`` before it can reach Flash.
        self.wear_budgets = (list(wear_budgets) if wear_budgets is not None
                             and any(budget is not None
                                     for budget in wear_budgets) else None)
        #: DRAM read-cache tier (repro.service.cache): hits cost
        #: ``DRAM_READ_NS`` off the eNVy bus, misses are admitted, host
        #: writes and cleaner relocations invalidate.  It holds page
        #: *presence*, not bytes, so transparency is structural.
        self.cache = (PageCache(config.cache_pages,
                                tenant_caps={
                                    i: cap for i, cap in enumerate(
                                        cache_tenant_caps or ())
                                    if cap is not None})
                      if config.cache_pages > 0 else None)
        #: Per-tenant cache-tier membership (aligned with tenant_names;
        #: None = every real tenant).  Pseudo-tenants (redundancy /
        #: rebuild traffic) are always excluded so replica reads and
        #: rebuild copies pay honest Flash timing.
        self.cache_tenants = (list(cache_tenants)
                              if cache_tenants is not None else None)
        #: Request-level tracing (repro.obs.trace): per request, an
        #: exact critical-path split of its latency and the controller
        #: spans it caused, published as a ``service.request`` span.
        #: Observational: every other output is bit-identical.
        self.trace = trace
        #: Which tenants are pseudo-tenants (``"__"`` names).
        self._pseudo = [name[:2] == "__" for name in self.tenant_names]
        #: Per tenant, the (read, write) histograms replays fold into;
        #: None counts a tenant's rows without recording them.
        self.latency: List[Optional[LatencyPair]] = []
        self._overdraft_ns = 0
        self._stamp = 0
        self._replay = None

    # ------------------------------------------------------------------

    def run(self, requests: Sequence[loadgen.Request],
            rids: Optional[Sequence[int]] = None,
            latency: Optional[Sequence[Optional[LatencyPair]]] = None
            ) -> Dict:
        """Execute the slice; returns a picklable per-shard stats dict.

        ``requests`` carry *local* page numbers (the front-end routes
        global pages before partitioning) and must be sorted by arrival
        — the schedule order the load generator produced.  When tracing,
        ``rids`` aligns a deterministic request id with each row (the
        request's index in the merged schedule; replica rows share the
        originating request's id) — defaults to the slice index.
        ``latency`` is :meth:`start`'s.
        """
        self.start(latency)
        # Window-sized stretches, so a collected slice (``jobs > 1``)
        # holds no more pending latencies than a streamed one.
        for begin in range(0, len(requests), loadgen.WINDOW_ROWS):
            end = begin + loadgen.WINDOW_ROWS
            self.feed(requests[begin:end], rids and rids[begin:end])
        return self.finish()

    def start(self, latency: Optional[Sequence[Optional[LatencyPair]]]
              = None) -> None:
        """Open a replay: install its hooks and wait for :meth:`feed`.
        Served latencies fold into ``latency`` (one ``(read, write)``
        pair per tenant name, or None to count the tenant's rows
        without recording them; by default fresh pairs, None for
        pseudo-tenants), :attr:`latency` from here on."""
        if latency is None:
            latency = [None if pseudo
                       else (LatencyHistogram(), LatencyHistogram())
                       for pseudo in self._pseudo]
        elif len(latency) != len(self.tenant_names):
            raise ValueError("latency must align with tenant_names")
        self.latency = list(latency)
        self._replay = self._replay_rows()
        next(self._replay)

    def feed(self, rows: Sequence[loadgen.Request],
             rids: Optional[Sequence[int]] = None) -> None:
        """Replay the next stretch of the slice.  Retries due past its
        last row stay pending, so any split replays as the whole."""
        self._replay.send((rows, rids))

    def finish(self) -> Dict:
        """Drain pending retries, remove the hooks, return the stats."""
        replay, self._replay = self._replay, None
        try:
            replay.send(None)
        except StopIteration as done:
            return done.value

    def _replay_rows(self):
        """The replay as a coroutine: each ``yield`` waits for the next
        ``(rows, rids)`` stretch (``None`` ends the slice), so queue,
        batch, retry heap and trace state live across feeds as locals."""
        controller = self.controller
        config = self.config
        metrics = controller.metrics
        bus = controller.events
        page_bytes = controller.config.page_bytes
        buffer = controller.buffer
        capacity = buffer.capacity_pages
        soft_pages = int(capacity * config.soft_watermark)
        hard_pages = int(capacity * config.hard_watermark)
        write = controller.write
        read_run_ns = controller.read_run_ns
        base_hits = metrics.buffer_hits
        # Constant for the whole replay: bind once, not once per row.
        names = self.tenant_names
        shard = self.shard_index
        queue_capacity = config.queue_capacity
        batch_pages = BATCH_PAGES
        stamp_payloads = self.stamp_payloads
        throttle_penalty_ns = THROTTLE_PENALTY_NS

        # Tenant counters as columns indexed by tenant number.
        columns = {key: [0] * len(names) for key in TENANT_COUNTERS}
        rejected, rejected_queue, delayed, retried, cache_misses = (
            columns[key] for key in ("rejected", "rejected_queue", "delayed",
                                     "retried", "cache_misses"))
        # Served latencies queue per tenant and op; every WINDOW_ROWS rows
        # fed, the non-empty queues fold into their counts and histograms
        # (a None pair: counted only).
        folds = [([[] for _ in names], columns[op],
                  [pair and pair[side] for pair in self.latency])
                 for side, op in enumerate(("reads", "writes"))]
        served_read, served_write = ([queue.append for queue in queues]
                                     for queues, _, _ in folds)
        everyone = range(len(names))

        def fold() -> None:
            for queues, counts, hists in folds:
                for tenant in compress(everyone, queues):
                    queue = queues[tenant]
                    counts[tenant] += len(queue)
                    if hists[tenant] is not None:
                        hists[tenant].record_many(queue)
                    queue.clear()
        completions: deque = deque()
        clock = batches = batch_len = batch_start_ns = max_batch = 0

        # --- wear attribution / budgets (adversarial multi-tenancy) ---
        # Per-tenant wear attribution (repro.service.adversary): each
        # flush program, the cleaning it induces and buffer residency
        # (per ``attribution_window_ns``) go to the page's owner.
        # Observational: every other output is bit-identical.
        attributing = config.attribute_wear
        budgets = self.wear_budgets
        budget_writes: Dict[int, Dict[int, int]] = {
            t_index: {} for t_index, budget in enumerate(budgets or ())
            if budget is not None}
        wear_slots: List[Dict] = []
        buffer_owner: Dict[int, int] = {}
        owner_count: Dict[int, int] = {}
        segment_programs: Dict[int, int] = {}
        window_ns = config.attribution_window_ns
        current_window: List[int] = []
        accrue_clock = 0
        store = controller.store

        # --- DRAM read-cache tier -------------------------------------
        cache = self.cache
        cache_ok: Optional[List[bool]] = None
        hit_ns = DRAM_READ_NS
        if cache is not None:
            # A hit is served here and counted at the end (reads less
            # misses); its refresh is one CLOCK reference bit.
            cached = cache.entries.get
            cache_ok = [flag and not pseudo for flag, pseudo in zip(
                self.cache_tenants or repeat(True), self._pseudo)]
            # A cleaner relocation physically moves a page's live copy;
            # a physically tagged cache entry is stale the moment that
            # happens, so subscribe to the store's per-page relocation
            # notification for the duration of the replay.

            def _on_cleaner_copy(page: int) -> None:
                if cache.invalidate(page) and bus.active:
                    bus.mark(CACHE_INVALIDATE,
                             {"shard": shard, "page": page,
                              "reason": "clean"})

        if attributing:
            wear_slots = [
                {"flushes": 0, "induced_clean_copies": 0,
                 "flush_segments": {}, "page_writes": {},
                 "residency_ns": 0, "residency_windows": []}
                for _ in names]
            current_window = [0] * len(names)

            def accrue(now: int) -> None:
                # Integrate per-tenant buffered-page counts over
                # [accrue_clock, now), split at window boundaries.
                nonlocal accrue_clock
                while accrue_clock < now:
                    window_end = (accrue_clock // window_ns + 1) * window_ns
                    step_end = min(now, window_end)
                    dt = step_end - accrue_clock
                    for t_index, count in owner_count.items():
                        if count:
                            wear_slots[t_index]["residency_ns"] += \
                                count * dt
                            current_window[t_index] += count * dt
                    accrue_clock = step_end
                    if step_end == window_end:
                        for t_index, slot_wear in enumerate(wear_slots):
                            slot_wear["residency_windows"].append(
                                current_window[t_index])
                            current_window[t_index] = 0

            def on_flush(page: int, clean_before: int) -> None:
                # Attribute the program — and any cleaning it set off —
                # to the tenant whose write put the page in SRAM.
                owner = buffer_owner.pop(page, None)
                if owner is not None:
                    owner_count[owner] -= 1
                    if not owner_count[owner]:
                        del owner_count[owner]
                location = store.page_location[page]
                if location is not None and location[0] >= 0:
                    phys = store.positions[location[0]].phys
                    segment_programs[phys] = \
                        segment_programs.get(phys, 0) + 1
                    if owner is not None:
                        slot_wear = wear_slots[owner]
                        slot_wear["flushes"] += 1
                        segments = slot_wear["flush_segments"]
                        segments[phys] = segments.get(phys, 0) + 1
                        slot_wear["induced_clean_copies"] += \
                            metrics.clean_copies - clean_before

        # --- request tracing (repro.obs.trace) ------------------------
        tracing = self.trace
        trace_rows: List[Dict] = []
        background_spans: Dict[str, List[int]] = {}
        children: List = []
        collecting = [False]
        busy = metrics.busy_ns
        pseudo_mask = self._pseudo
        track_pseudo = tracing and any(pseudo_mask)
        #: Service footprints of pseudo-tenant (redundancy / rebuild)
        #: rows, pruned as arrivals pass them — the exact overlap of a
        #: request's wait with these intervals is its "redundancy" blame.
        pseudo_busy: deque = deque()

        if tracing:
            def collect(event: ObsEvent) -> None:
                # Controller spans inside the current request window
                # become its children; spans between requests (idle-gap
                # background flushing) fold into a per-kind summary.
                if event.kind == SERVICE_REQUEST:
                    return
                if collecting[0]:
                    children.append((event.kind, event.t_ns,
                                     event.dur_ns))
                elif event.dur_ns:
                    slot_bg = background_spans.get(event.kind)
                    if slot_bg is None:
                        background_spans[event.kind] = [1, event.dur_ns]
                    else:
                        slot_bg[0] += 1
                        slot_bg[1] += event.dur_ns

        def tenant_mark(kind: str, tenant_index: int, **fields) -> None:
            bus.mark(kind, {"shard": shard, "tenant": names[tenant_index],
                            **fields})

        def reject(outcome, reason, tenant_index, is_write, arrival,
                   orig_arrival, attempt, rid) -> None:
            # ``outcome`` is the tenant counter; a wear-budget refusal is
            # not counted as ``rejected``.
            columns[outcome][tenant_index] += 1
            if outcome != "rejected_wear":
                rejected[tenant_index] += 1
            if bus.active:
                tenant_mark(SERVICE_REJECT, tenant_index, reason=reason)
            if tracing:
                trace_rows.append({
                    "rid": rid, "shard": shard, "tenant": names[tenant_index],
                    "op": "write" if is_write else "read",
                    "outcome": outcome, "arrival_ns": orig_arrival,
                    "start_ns": arrival, "end_ns": arrival, "latency_ns": 0,
                    "attempts": attempt, "components": {}})

        def close_batch() -> None:
            # Of an open batch; the idle-gap path spells this out.  The
            # next batch starts now, unless a gap moves its start on.
            nonlocal batches, batch_len, max_batch, batch_start_ns
            batches += 1
            if batch_len > max_batch:
                max_batch = batch_len
            if bus.active:
                bus.emit_span(SERVICE_BATCH, clock - batch_start_ns,
                              {"shard": shard, "pages": batch_len})
            batch_len = 0
            batch_start_ns = clock

        retry_limit = config.retry_limit
        backoff_ns = config.retry_backoff_ns
        threshold_pages = buffer.threshold_pages
        background_work = controller.background_work
        # Flush work overrunning the last idle gap, kept across replays.
        overdraft = self._overdraft_ns
        # Tracing and wear attribution bracket an access under one test of
        # ``observing`` a side.
        observing = tracing or attributing
        # Deferred retries: (due_ns, tenant, seq, is_write, page,
        # original_arrival, attempt, rid), merged with the arrival stream by
        # (time, tenant, seq) so the replay order is schedule-determined.
        retries: List = []
        # With retries or tracing on, rows come through ``merged`` and
        # their original arrival, attempt and request id through ``extra``.
        merging = bool(retry_limit) or tracing
        extra: List = [0, 0, None]
        attempt, rid = 0, None

        def merged(rows, row_rids):
            """``rows``, due retries merged in; a ``None`` row drains them."""
            for index, row in enumerate(rows):
                while retries and (row is None or retries[0][:3] <= row[:3]):
                    due = heapq.heappop(retries)
                    extra[:] = due[5:]
                    yield due[:5]
                if row is not None:
                    extra[:] = row[0], 0, row_rids[index] if tracing else None
                    yield row

        fed = 0
        fold_at = fold_every = loadgen.WINDOW_ROWS
        # The replay's three subscriptions go in together and — an
        # interrupted or abandoned replay included (repro.service.chaos
        # cuts the power on purpose) — come out together in the finally
        # below.
        if cache is not None:
            store.copy_listeners.append(_on_cleaner_copy)
        if attributing:
            # Stall-path and background flushes alike report here.
            controller.flush_listeners.append(on_flush)
        if tracing:
            bus.subscribe(collect)
        try:
            while True:
                if fed >= fold_at:
                    fold()
                    fold_at = fed + fold_every
                requests, rids = (yield) or (None, None)
                if requests is not None:
                    if tracing and rids is None:
                        rids = range(fed, fed + len(requests))
                    fed += len(requests)
                    rows = (merged(requests, rids) if merging
                            else requests)
                elif retries:
                    rows = merged([None], None)
                else:
                    break
                for arrival, tenant_index, seq, is_write, page in rows:
                    if merging:
                        orig_arrival, attempt, rid = extra
                    else:
                        orig_arrival = arrival
                    if arrival > clock:
                        # Every completion is at or before the clock, so the
                        # queue is empty and the request finds room in it.
                        completions.clear()
                        if batch_len:
                            batches += 1
                            if batch_len > max_batch:
                                max_batch = batch_len
                            if bus.active:
                                bus.emit_span(SERVICE_BATCH,
                                              clock - batch_start_ns,
                                              {"shard": shard,
                                               "pages": batch_len})
                            batch_len = 0
                        if attributing:
                            # The gap accrues pre-flush ownership; background
                            # flushes shrink the counts for what follows.
                            accrue(arrival)
                        if overdraft or len(buffer) > threshold_pages:
                            # The gap pays the flush chain in flight, then
                            # flushes while over the threshold; the last
                            # flush may overrun it.
                            overdraft = background_work(arrival - clock,
                                                        overdraft)
                            if overdraft < 0:
                                overdraft = 0
                        batch_start_ns = clock = arrival
                        if bus.active:
                            bus.sync(clock)
                    else:
                        while completions and completions[0] <= arrival:
                            completions.popleft()
                        # Bounded queue: depth counts requests still waiting
                        # or in service when this one arrives.
                        if len(completions) >= queue_capacity:
                            if attempt < retry_limit:
                                due = arrival + backoff_ns * (1 << attempt)
                                heapq.heappush(retries, (
                                    due, tenant_index, seq, is_write, page,
                                    orig_arrival, attempt + 1, rid))
                                retried[tenant_index] += 1
                                if bus.active:
                                    tenant_mark(SERVICE_RETRY, tenant_index,
                                                attempt=attempt + 1)
                                continue
                            if tracing or bus.active:
                                reject("rejected_queue", "queue_full",
                                       tenant_index, is_write, arrival,
                                       orig_arrival, attempt, rid)
                            else:
                                rejected_queue[tenant_index] += 1
                                rejected[tenant_index] += 1
                            continue
                    if is_write:
                        delay = 0
                        occupancy = len(buffer)
                        # Wear budget: a tenant that has already spent its
                        # per-page write allowance gets this write rejected
                        # before it can touch SRAM, let alone Flash; one
                        # that will not be shed below has spent one more.
                        if budgets is not None and \
                                budgets[tenant_index] is not None:
                            counts = budget_writes[tenant_index]
                            spent = counts.get(page, 0)
                            if spent >= budgets[tenant_index]:
                                reject("rejected_wear", "wear_budget",
                                       tenant_index, is_write, arrival,
                                       orig_arrival, attempt, rid)
                                continue
                            if occupancy < hard_pages:
                                counts[page] = spent + 1
                        if occupancy >= soft_pages:
                            if occupancy >= hard_pages:
                                # Cleaner debt at the hard watermark: shed
                                # the write.
                                reject("rejected_shed", "cleaner_behind",
                                       tenant_index, is_write, arrival,
                                       orig_arrival, attempt, rid)
                                continue
                            delay = throttle_penalty_ns
                            clock += delay
                            delayed[tenant_index] += 1
                            if bus.active:
                                tenant_mark(SERVICE_THROTTLE, tenant_index,
                                            delay_ns=delay)
                    if observing:
                        if tracing:
                            if not is_write:
                                delay = 0
                            # Critical-path capture: busy buckets and the
                            # overdraft around the access put each stalled
                            # ns in one component (see repro.obs.trace).
                            service_t0 = clock - delay
                            wait_ns = service_t0 - arrival
                            red_wait = 0
                            if track_pseudo and \
                                    not pseudo_mask[tenant_index]:
                                while pseudo_busy and \
                                        pseudo_busy[0][1] <= arrival:
                                    pseudo_busy.popleft()
                                for p_start, p_end in pseudo_busy:
                                    red_wait += p_end - max(p_start,
                                                            arrival)
                            busy0 = [busy.get(key, 0) for key in _STALLS]
                            overdraft0 = overdraft
                            collecting[0] = True
                            bus.sync(clock)
                        if attributing:
                            accrue(clock)
                    if is_write:
                        flushes_before = metrics.flushes
                        if stamp_payloads:
                            self._stamp += 1
                            payload = self._stamp.to_bytes(_WORD, "little")
                        else:
                            payload = _WORD_PAYLOAD
                        ns = write(page * page_bytes, payload)
                        if metrics.flushes != flushes_before:
                            # The write stalled on a flush; it also waited for
                            # the background operation already in flight.
                            ns += overdraft
                            overdraft = 0
                        clock += ns
                        served_write[tenant_index](clock - orig_arrival)
                        if cache is not None and cache.invalidate(page):
                            # The write supersedes the cached copy (the live
                            # version now sits in SRAM / a fresh Flash slot).
                            if bus.active:
                                bus.mark(CACHE_INVALIDATE,
                                         {"shard": shard, "page": page,
                                          "reason": "write"})
                    elif cache_ok is None or not cache_ok[tenant_index]:
                        clock += read_run_ns(page)[0]
                        served_read[tenant_index](clock - orig_arrival)
                    else:
                        entry = cached(page)
                        if entry is not None:
                            # DRAM hit: served host-side, never crosses the
                            # eNVy bus or touches the array.
                            clock += hit_ns
                            entry[REF] = 1
                            if bus.active:
                                tenant_mark(CACHE_HIT, tenant_index, page=page)
                        else:
                            clock += read_run_ns(page)[0]
                            cache_misses[tenant_index] += 1
                            victim = cache.admit(page, tenant_index)
                            if bus.active:
                                tenant_mark(CACHE_MISS, tenant_index,
                                            page=page)
                                if victim is not None:
                                    bus.mark(CACHE_EVICT,
                                             {"shard": shard, "page": victim})
                        served_read[tenant_index](clock - orig_arrival)
                    if observing:
                        if attributing and is_write:
                            if page in buffer:
                                prev = buffer_owner.get(page)
                                if prev != tenant_index:
                                    if prev is not None:
                                        owner_count[prev] -= 1
                                        if not owner_count[prev]:
                                            del owner_count[prev]
                                    buffer_owner[page] = tenant_index
                                    owner_count[tenant_index] = \
                                        owner_count.get(tenant_index, 0) + 1
                            writes_map = \
                                wear_slots[tenant_index]["page_writes"]
                            writes_map[page] = writes_map.get(page, 0) + 1
                        if tracing:
                            collecting[0] = False
                            deltas = [busy.get(key, 0) - before
                                      for key, before in zip(_STALLS, busy0)]
                            d_flush, d_clean, d_erase, d_retry, d_ckpt = deltas
                            overdraft_paid = overdraft0 - overdraft
                            op = "write" if is_write else "read"
                            name = names[tenant_index]
                            components = {
                                "queue": wait_ns - red_wait,
                                "redundancy": red_wait,
                                "retry_wait": arrival - orig_arrival,
                                "throttle": delay,
                                "flush_stall":
                                    d_flush + d_ckpt + overdraft_paid,
                                "clean_stall": d_clean + d_erase,
                                "fault_retry": d_retry,
                                "service": (clock - service_t0) - delay
                                           - overdraft_paid - sum(deltas),
                            }
                            trace_rows.append({
                                "rid": rid, "shard": shard,
                                "tenant": name, "op": op, "outcome": "served",
                                "arrival_ns": orig_arrival,
                                "start_ns": service_t0, "end_ns": clock,
                                "latency_ns": clock - orig_arrival,
                                "attempts": attempt, "components": components,
                                "children": list(children)})
                            children.clear()
                            bus.emit(ObsEvent(
                                SERVICE_REQUEST, service_t0,
                                clock - service_t0,
                                {"rid": rid, "tenant": name, "shard": shard,
                                 "op": op, **components}))
                            if track_pseudo and pseudo_mask[tenant_index]:
                                pseudo_busy.append((service_t0, clock))
                    completions.append(clock)
                    batch_len += 1
                    if batch_len >= batch_pages:
                        close_batch()
                if requests is None:
                    break
                requests = rids = rows = None  # replayed: free it
            if batch_len:
                close_batch()
            fold()
        finally:
            self._overdraft_ns = overdraft
            if cache is not None:
                store.copy_listeners.remove(_on_cleaner_copy)
            if attributing:
                controller.flush_listeners.remove(on_flush)
            if tracing:
                bus.unsubscribe(collect)

        if attributing:
            accrue(clock)
            if any(current_window):
                # Final partial window, appended for every tenant so the
                # per-tenant window series stay index-aligned.
                for t_index, slot_wear in enumerate(wear_slots):
                    slot_wear["residency_windows"].append(
                        current_window[t_index])

        if cache_ok is not None:
            # Each read of a cache-tier tenant probed the tier once, and
            # only the misses were counted row by row.
            columns["cache_hits"] = [
                reads - misses if ok else 0 for reads, misses, ok
                in zip(columns["reads"], cache_misses, cache_ok)]
            cache.hits += sum(columns["cache_hits"])
            cache.misses += sum(cache_misses)
        result = {
            "shard": shard,
            "clock_ns": clock,
            "columns": columns,
            # Shard totals of the per-tenant refusal and retry counts.
            **{key: sum(columns[key])
               for key in ("rejected_queue", "rejected_shed", "retried")},
            "batches": batches,
            "max_batch_pages": max_batch,
            "coalesced_writes": metrics.buffer_hits - base_hits,
            "flushes": metrics.flushes,
            "clean_copies": metrics.clean_copies,
            "erases": metrics.erases,
            "wear_swaps": metrics.wear_swaps,
        }
        if budgets is not None:
            result["rejected_wear"] = sum(columns["rejected_wear"])
        if cache is not None:
            result["cache"] = cache.stats()
        if attributing:
            # Per tenant number, like the columns.
            result["wear"] = wear_slots
            result["segment_programs"] = segment_programs
            result["buffer_capacity_pages"] = capacity
        if tracing:
            result["trace"] = {"rows": trace_rows,
                               "background": background_spans}
        return result


def build_shard_controller(config: ServiceConfig, shard_index: int
                           ) -> EnvyController:
    """Shard ``shard_index`` of the service ``config`` describes.

    The controller is built from :meth:`ServiceConfig.shard_config` and
    prewarmed to cleaning steady state with its own
    :func:`~repro.perf.sweep.derive_seed` stream, so shard ``i`` of an
    N-shard service always starts from the same state regardless of
    which process builds it.
    """
    controller = EnvyController(config.shard_config(),
                                store_data=config.store_data)
    if config.prewarm_turnovers > 0:
        controller.prewarm(config.prewarm_turnovers,
                           seed=derive_seed(config.seed, 1000 + shard_index))
    return controller


def service_shard_point(point: Mapping) -> Dict:
    """Sweep worker: build, prewarm and run one shard.

    Dispatched by dotted name
    (``"repro.service.executor:service_shard_point"``) so worker
    processes import it fresh; the point carries everything the shard
    needs and the return value is the executor's picklable stats dict,
    plus its per-tenant histogram pairs (None for pseudo-tenants) under
    ``"latency"``.
    """
    executor = shard_executor(point)
    result = executor.run(point["requests"], rids=point.get("rids"))
    result["latency"] = executor.latency
    return result


def shard_executor(point: Mapping) -> ShardExecutor:
    """One shard, built and prewarmed from its sweep point — the
    service's ``config``, the shard's index, the run's ``inputs``
    (:meth:`~repro.service.frontend.EnvyService.executor_inputs`) and
    ``trace`` — ready to :meth:`~ShardExecutor.run` or to be fed window
    by window."""
    config, shard_index = point["config"], point["shard_index"]
    return ShardExecutor(build_shard_controller(config, shard_index),
                         shard_index, config=config, trace=point["trace"],
                         **point["inputs"])
