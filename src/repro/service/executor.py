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
* **background work** — idle gaps between arrivals go to the
  controller's flusher/cleaner exactly as in :class:`~repro.sim.
  engine.TimedSimulator`, with the same overdraft rule (a flush chain
  started late in a gap completes across the boundary).
* **bounded retry** — with ``retry_limit > 0``, a queue-full rejection
  is converted into a deferred retry at ``arrival +
  retry_backoff_ns * 2^attempt`` instead of surfacing to the tenant.
  Retries live on a schedule-time heap merged with the arrival stream
  by ``(time, tenant, seq)``, so the replay order — and therefore
  every metric — is a pure function of the slice, bit-identical
  across reruns and ``jobs`` settings.  A request that exhausts its
  retries is rejected as before; latency is measured from the
  *original* arrival, so retried requests honestly fatten the tail.

Everything the executor returns is a plain picklable dict, because
:func:`service_shard_point` is the ``"module:function"`` worker
:func:`~repro.perf.sweep.run_sweep` dispatches to processes — shard
results must cross a process boundary and merge deterministically.
Latencies are not in it: they fold into the histogram pairs the
executor is handed (:meth:`ShardExecutor.start`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.controller import EnvyController
from ..obs.events import (CACHE_EVICT, CACHE_HIT, CACHE_INVALIDATE,
                          CACHE_MISS, SERVICE_BATCH, SERVICE_REJECT,
                          SERVICE_REQUEST, SERVICE_RETRY, SERVICE_THROTTLE,
                          ObsEvent)
from ..obs.hist import LatencyHistogram
from ..perf.sweep import derive_seed
from .cache import DRAM_READ_NS, PageCache
from . import loadgen

__all__ = ["ShardExecutor", "service_shard_point", "BATCH_PAGES",
           "THROTTLE_PENALTY_NS"]

_WORD = 8
_WORD_PAYLOAD = b"\x00" * _WORD

#: Batch-boundary cap of the write-batching accounting, in requests.
BATCH_PAGES = 16
#: Delay charged to each write admitted past the soft watermark.
THROTTLE_PENALTY_NS = 2000

#: One tenant's served-latency histograms: (reads, writes).
LatencyPair = Tuple[LatencyHistogram, LatencyHistogram]


class ShardExecutor:
    """Replays one shard's request slice against its controller."""

    def __init__(self, controller: EnvyController, shard_index: int,
                 tenant_names: Sequence[str],
                 queue_capacity: int = 256,
                 soft_watermark: float = 0.85,
                 hard_watermark: float = 0.97,
                 stamp_payloads: bool = False,
                 retry_limit: int = 0,
                 retry_backoff_ns: int = 4000,
                 attribute_wear: bool = False,
                 attribution_window_ns: int = 50_000,
                 wear_budgets: Optional[Sequence[Optional[int]]] = None,
                 trace: bool = False,
                 cache_pages: int = 0,
                 cache_policy: str = "clock",
                 cache_tenants: Optional[Sequence[bool]] = None,
                 cache_tenant_caps: Optional[Sequence[Optional[int]]]
                 = None) -> None:
        if queue_capacity < 1:
            raise ValueError("queue needs capacity for at least one request")
        if not 0.0 < soft_watermark <= hard_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 < soft <= hard <= 1")
        if retry_limit < 0:
            raise ValueError("retry_limit cannot be negative")
        if retry_limit and retry_backoff_ns < 1:
            raise ValueError("retries need a positive backoff")
        self.controller = controller
        self.shard_index = shard_index
        self.tenant_names = list(tenant_names)
        self.queue_capacity = queue_capacity
        self.soft_watermark = soft_watermark
        self.hard_watermark = hard_watermark
        #: Write a distinct 8-byte stamp per write (the chaos oracle
        #: needs distinguishable committed payloads): a per-executor
        #: running counter.
        self.stamp_payloads = stamp_payloads
        #: Queue-full rejections each request may absorb as deferred
        #: retries before it is surfaced as rejected (0 = off).
        self.retry_limit = retry_limit
        self.retry_backoff_ns = retry_backoff_ns
        if attribution_window_ns < 1:
            raise ValueError("attribution windows need positive length")
        if wear_budgets is not None:
            if len(wear_budgets) != len(self.tenant_names):
                raise ValueError(
                    "wear_budgets must align with tenant_names")
            if all(budget is None for budget in wear_budgets):
                wear_budgets = None
        #: Per-tenant wear attribution (repro.service.adversary): track
        #: which tenant owns each buffered page, attribute every flush
        #: program (and the cleaning it induces) to the owner's segment
        #: histogram, and integrate per-tenant buffer residency over
        #: windows of ``attribution_window_ns``.  Purely observational —
        #: the replay, its timing and every existing metric are
        #: bit-identical with attribution on or off.
        self.attribute_wear = attribute_wear
        self.attribution_window_ns = attribution_window_ns
        #: Per-tenant cap on admitted writes per logical page (aligned
        #: with ``tenant_names``; None entries are unlimited).  Enforced
        #: at admission: a write past the cap is rejected with reason
        #: ``wear_budget`` before it can reach Flash.
        self.wear_budgets = (list(wear_budgets)
                             if wear_budgets is not None else None)
        if cache_pages < 0:
            raise ValueError("cache_pages cannot be negative")
        if cache_tenants is not None and \
                len(cache_tenants) != len(self.tenant_names):
            raise ValueError("cache_tenants must align with tenant_names")
        if cache_tenant_caps is not None and \
                len(cache_tenant_caps) != len(self.tenant_names):
            raise ValueError(
                "cache_tenant_caps must align with tenant_names")
        #: DRAM read-cache tier (repro.service.cache): reads probing it
        #: serve hits at ``DRAM_READ_NS`` (Figure 1 DRAM access time —
        #: a hit never crosses the eNVy bus) and admit misses;
        #: host writes and cleaner relocations invalidate.  The cache
        #: holds page *presence*, not bytes — data still lives in the
        #: simulated array, so transparency is structural.
        self.cache = (PageCache(cache_pages, cache_policy,
                                tenant_caps={
                                    i: cap for i, cap in enumerate(
                                        cache_tenant_caps or ())
                                    if cap is not None})
                      if cache_pages > 0 else None)
        #: Per-tenant cache-tier membership (aligned with tenant_names;
        #: None = every real tenant).  Pseudo-tenants (redundancy /
        #: rebuild traffic) are always excluded so replica reads and
        #: rebuild copies pay honest Flash timing.
        self.cache_tenants = (list(cache_tenants)
                              if cache_tenants is not None else None)
        #: Request-level tracing (repro.obs.trace): record, per request,
        #: an exact critical-path decomposition of its latency plus the
        #: controller spans emitted while serving it, and publish each
        #: request as a ``service.request`` span on the controller bus.
        #: Purely observational — the replay and every simulation metric
        #: are bit-identical with tracing on or off.
        self.trace = trace
        #: Per tenant, the (read, write) histograms replays fold into.
        self.latency: List[LatencyPair] = []
        self._overdraft_ns = 0
        self._stamp = 0
        self._replay = None

    # ------------------------------------------------------------------

    def _background(self, budget_ns: int) -> int:
        """Spend an idle gap on pending and new background work."""
        done = 0
        if self._overdraft_ns > 0:
            paid = min(self._overdraft_ns, budget_ns)
            self._overdraft_ns -= paid
            done += paid
        controller = self.controller
        while done < budget_ns and controller.buffer.over_threshold:
            work = controller.flush_one()
            if done + work > budget_ns:
                self._overdraft_ns += done + work - budget_ns
                done = budget_ns
            else:
                done += work
        return done

    def run(self, requests: Sequence[loadgen.Request],
            rids: Optional[Sequence[int]] = None) -> Dict:
        """Execute the slice; returns a picklable per-shard stats dict.

        ``requests`` carry *local* page numbers (the front-end routes
        global pages before partitioning) and must be sorted by arrival
        — the schedule order the load generator produced.  When tracing,
        ``rids`` aligns a deterministic request id with each row (the
        request's index in the merged schedule; replica rows share the
        originating request's id) — defaults to the slice index.
        """
        self.start()
        # Window-sized stretches, so a collected slice (``jobs > 1``)
        # holds no more pending latencies than a streamed one.
        for begin in range(0, len(requests), loadgen.WINDOW_ROWS):
            end = begin + loadgen.WINDOW_ROWS
            self.feed(requests[begin:end], rids and rids[begin:end])
        return self.finish()

    def start(self, latency: Optional[Sequence[LatencyPair]] = None
              ) -> None:
        """Open a replay: install its hooks and wait for :meth:`feed`.
        Served latencies fold into ``latency`` (one ``(read, write)``
        pair per tenant name; fresh pairs by default), :attr:`latency`
        from here on."""
        if latency is None:
            latency = [(LatencyHistogram(), LatencyHistogram())
                       for _ in self.tenant_names]
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
        metrics = controller.metrics
        bus = controller.events
        page_bytes = controller.config.page_bytes
        buffer = controller.buffer
        capacity = buffer.capacity_pages
        soft_pages = int(capacity * self.soft_watermark)
        hard_pages = int(capacity * self.hard_watermark)
        write = controller.write
        read_run_ns = controller.read_run_ns
        base_hits = metrics.buffer_hits
        # Constant for the whole replay: bind once, not once per row.
        names = self.tenant_names
        shard = self.shard_index
        queue_capacity = self.queue_capacity
        batch_pages = BATCH_PAGES
        stamp_payloads = self.stamp_payloads
        throttle_penalty_ns = THROTTLE_PENALTY_NS

        per_tenant = {
            name: {"rejected": 0, "rejected_queue": 0, "rejected_shed": 0,
                   "delayed": 0, "reads": 0, "writes": 0,
                   "retried": 0, "rejected_wear": 0,
                   "cache_hits": 0, "cache_misses": 0}
            for name in names
        }
        # The same slots by tenant index.  Served latencies queue per tenant
        # and fold into its histograms and counts every WINDOW_ROWS rows fed.
        slots = [per_tenant[name] for name in names]
        sinks = [(slot, read_hist, [], write_hist, [])
                 for slot, (read_hist, write_hist)
                 in zip(slots, self.latency)]
        served_read = [sink[2].append for sink in sinks]
        served_write = [sink[4].append for sink in sinks]

        def fold() -> None:
            for slot, read_hist, reads, write_hist, writes in sinks:
                if reads:
                    slot["reads"] += len(reads)
                    read_hist.record_many(reads)
                    reads.clear()
                if writes:
                    slot["writes"] += len(writes)
                    write_hist.record_many(writes)
                    writes.clear()
        completions: deque = deque()
        clock = 0
        batches = 0
        batch_len = 0
        batch_start_ns = 0
        max_batch = 0

        # --- wear attribution / budgets (adversarial multi-tenancy) ---
        attributing = self.attribute_wear
        budgets = self.wear_budgets
        budget_writes: Dict[int, Dict[int, int]] = {}
        if budgets is not None:
            for t_index, budget in enumerate(budgets):
                if budget is not None:
                    budget_writes[t_index] = {}
        wear_slots: List[Dict] = []
        buffer_owner: Dict[int, int] = {}
        owner_count: Dict[int, int] = {}
        segment_programs: Dict[int, int] = {}
        window_ns = self.attribution_window_ns
        current_window: List[int] = []
        accrue_clock = 0
        store = controller.store

        # --- DRAM read-cache tier -------------------------------------
        cache = self.cache
        cache_ok: Optional[List[bool]] = None
        hit_ns = DRAM_READ_NS
        if cache is not None:
            lookup = cache.lookup
            if self.cache_tenants is None:
                cache_ok = [not name.startswith("__") for name in names]
            else:
                cache_ok = [flag and not name.startswith("__")
                            for flag, name in zip(self.cache_tenants, names)]
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
        pseudo_mask = [name.startswith("__") for name in names]
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
            slot = slots[tenant_index]
            slot[outcome] += 1
            if outcome != "rejected_wear":
                slot["rejected"] += 1
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
            # Callers only close an open batch (batch_len > 0).
            nonlocal batches, batch_len, max_batch
            batches += 1
            if batch_len > max_batch:
                max_batch = batch_len
            if bus.active:
                bus.emit_span(SERVICE_BATCH, max(0, clock - batch_start_ns),
                              {"shard": shard, "pages": batch_len})
            batch_len = 0

        retry_limit = self.retry_limit
        backoff_ns = self.retry_backoff_ns
        # Deferred retries: (due_ns, tenant, seq, is_write, page,
        # original_arrival, attempt, rid), merged with the arrival stream by
        # (time, tenant, seq) so the replay order is schedule-determined.
        retries: List = []
        requests = rids = rid = None
        index = total = fed = 0
        fold_at = fold_every = loadgen.WINDOW_ROWS
        feeding = True
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
                if index >= total:
                    if feeding:
                        if fed >= fold_at:
                            fold()
                            fold_at = fed + fold_every
                        requests = None  # replayed: free it while waiting
                        requests, rids = (yield) or (None, None)
                        feeding = requests is not None
                        if feeding:
                            index, total = 0, len(requests)
                            if tracing and rids is None:
                                rids = range(fed, fed + total)
                            fed += total
                        continue
                    if not retries:
                        break
                if retries and (index >= total
                                or retries[0][:3] <= (requests[index][0],
                                                      requests[index][1],
                                                      requests[index][2])):
                    (arrival, tenant_index, seq, is_write, page,
                     orig_arrival, attempt, rid) = heapq.heappop(retries)
                else:
                    (arrival, tenant_index, seq, is_write,
                     page) = requests[index]
                    if tracing:
                        rid = rids[index]
                    index += 1
                    orig_arrival = arrival
                    attempt = 0
                while completions and completions[0] <= arrival:
                    completions.popleft()
                if arrival > clock:
                    if batch_len:
                        close_batch()
                    if attributing:
                        # Integrate the idle gap with pre-flush ownership;
                        # background flushes then shrink the counts for
                        # the stretch that follows.
                        accrue(arrival)
                    gap = arrival - clock
                    overdraft = self._overdraft_ns
                    if overdraft >= gap:
                        # The whole gap goes to the flush chain already
                        # in flight; nothing new can start.
                        self._overdraft_ns = overdraft - gap
                    elif overdraft or buffer.over_threshold:
                        self._background(gap)
                    clock = arrival
                    if bus.active:
                        bus.sync(clock)
                # Bounded queue: depth counts requests still waiting or in
                # service when this one arrives.
                if len(completions) >= queue_capacity:
                    if attempt < retry_limit:
                        due = arrival + backoff_ns * (1 << attempt)
                        heapq.heappush(retries,
                                       (due, tenant_index, seq, is_write,
                                        page, orig_arrival, attempt + 1,
                                        rid))
                        slots[tenant_index]["retried"] += 1
                        if bus.active:
                            tenant_mark(SERVICE_RETRY, tenant_index,
                                        attempt=attempt + 1)
                        continue
                    reject("rejected_queue", "queue_full", tenant_index,
                           is_write, arrival, orig_arrival, attempt, rid)
                    continue
                # Wear budget: a tenant that has already spent its per-page
                # write allowance gets this write rejected before it can
                # touch SRAM, let alone Flash.
                if is_write and budgets is not None:
                    budget = budgets[tenant_index]
                    if (budget is not None
                            and budget_writes[tenant_index].get(page, 0)
                            >= budget):
                        reject("rejected_wear", "wear_budget", tenant_index,
                               is_write, arrival, orig_arrival, attempt, rid)
                        continue
                delay = 0
                if is_write:
                    occupancy = len(buffer)
                    if occupancy >= hard_pages:
                        # Cleaner debt at the hard watermark: shed the
                        # write.
                        reject("rejected_shed", "cleaner_behind",
                               tenant_index, is_write, arrival, orig_arrival,
                               attempt, rid)
                        continue
                    if occupancy >= soft_pages:
                        delay = throttle_penalty_ns
                        slots[tenant_index]["delayed"] += 1
                        if bus.active:
                            tenant_mark(SERVICE_THROTTLE, tenant_index,
                                        delay_ns=delay)
                if batch_len == 0:
                    batch_start_ns = clock
                if tracing:
                    # Critical-path capture: snapshot the controller's
                    # busy buckets and the overdraft ledger around the
                    # access so every stalled nanosecond lands in exactly
                    # one component (see repro.obs.trace).
                    service_t0 = clock
                    wait_ns = clock - arrival
                    red_wait = 0
                    if track_pseudo and not pseudo_mask[tenant_index]:
                        while pseudo_busy and pseudo_busy[0][1] <= arrival:
                            pseudo_busy.popleft()
                        for p_start, p_end in pseudo_busy:
                            red_wait += p_end - max(p_start, arrival)
                    flush0 = busy.get("flush", 0)
                    clean0 = busy.get("clean", 0)
                    erase0 = busy.get("erase", 0)
                    retry0 = busy.get("retry", 0)
                    ckpt0 = busy.get("checkpoint", 0)
                    overdraft0 = self._overdraft_ns
                clock += delay
                if tracing:
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
                        ns += self._overdraft_ns
                        self._overdraft_ns = 0
                    clock += ns
                    served_write[tenant_index](clock - orig_arrival)
                    if cache is not None and cache.invalidate(page):
                        # The write supersedes the cached copy (the live
                        # version now sits in SRAM / a fresh Flash slot).
                        if bus.active:
                            bus.mark(CACHE_INVALIDATE,
                                     {"shard": shard, "page": page,
                                      "reason": "write"})
                    if budgets is not None:
                        counts = budget_writes.get(tenant_index)
                        if counts is not None:
                            counts[page] = counts.get(page, 0) + 1
                    if attributing:
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
                        writes_map = wear_slots[tenant_index]["page_writes"]
                        writes_map[page] = writes_map.get(page, 0) + 1
                else:
                    if cache_ok is not None and cache_ok[tenant_index]:
                        if lookup(page) is not None:
                            # DRAM hit: served host-side, never crosses
                            # the eNVy bus or touches the array.
                            ns = hit_ns
                            if bus.active:
                                tenant_mark(CACHE_HIT, tenant_index, page=page)
                        else:
                            ns = read_run_ns(page)[0]
                            slots[tenant_index]["cache_misses"] += 1
                            victim = cache.admit(page, tenant_index)
                            if bus.active:
                                tenant_mark(CACHE_MISS, tenant_index,
                                            page=page)
                                if victim is not None:
                                    bus.mark(CACHE_EVICT,
                                             {"shard": shard,
                                              "page": victim})
                    else:
                        ns = read_run_ns(page)[0]
                    clock += ns
                    served_read[tenant_index](clock - orig_arrival)
                if tracing:
                    collecting[0] = False
                    d_flush = busy.get("flush", 0) - flush0
                    d_clean = busy.get("clean", 0) - clean0
                    d_erase = busy.get("erase", 0) - erase0
                    d_retry = busy.get("retry", 0) - retry0
                    d_ckpt = busy.get("checkpoint", 0) - ckpt0
                    overdraft_paid = overdraft0 - self._overdraft_ns
                    stall = d_flush + d_clean + d_erase + d_retry + d_ckpt
                    op = "write" if is_write else "read"
                    name = names[tenant_index]
                    components = {
                        "queue": wait_ns - red_wait,
                        "redundancy": red_wait,
                        "retry_wait": arrival - orig_arrival,
                        "throttle": delay,
                        "flush_stall": d_flush + d_ckpt + overdraft_paid,
                        "clean_stall": d_clean + d_erase,
                        "fault_retry": d_retry,
                        "service": (clock - service_t0) - delay
                                   - overdraft_paid - stall,
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
                        SERVICE_REQUEST, service_t0, clock - service_t0,
                        {"rid": rid, "tenant": name, "shard": shard,
                         "op": op, **components}))
                    if track_pseudo and pseudo_mask[tenant_index]:
                        pseudo_busy.append((service_t0, clock))
                completions.append(clock)
                batch_len += 1
                if batch_len >= batch_pages:
                    close_batch()
            if batch_len:
                close_batch()
            fold()
        finally:
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
            for slot, slot_wear in zip(slots, wear_slots):
                slot["wear"] = slot_wear

        if cache_ok is not None:
            for slot, ok in zip(slots, cache_ok):
                if ok:
                    # Each read of a cache-tier tenant probed the tier
                    # once, and only the misses were counted row by row.
                    slot["cache_hits"] = slot["reads"] - slot["cache_misses"]
        result = {
            "shard": shard,
            "clock_ns": clock,
            "tenants": per_tenant,
            # Shard totals of the per-tenant refusal and retry counts.
            **{key: sum(slot[key] for slot in slots)
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
            result["rejected_wear"] = sum(slot["rejected_wear"]
                                          for slot in slots)
        if cache is not None:
            result["cache"] = cache.stats()
        if attributing:
            result["segment_programs"] = segment_programs
            result["buffer_capacity_pages"] = capacity
        if tracing:
            result["trace"] = {"rows": trace_rows,
                               "background": background_spans}
        return result


def build_shard_controller(spec: Mapping, shard_index: int,
                           store_data: Optional[bool] = None
                           ) -> EnvyController:
    """One shard's controller from a picklable service spec.

    ``spec`` carries the per-shard array geometry (``num_segments``,
    ``pages_per_segment``, ``page_bytes``, ``utilization``, ``policy``)
    plus the service seed; the shard is prewarmed to cleaning steady state with its own
    :func:`~repro.perf.sweep.derive_seed` stream, so shard ``i`` of an
    N-shard service always starts from the same state regardless of
    which process builds it.
    """
    from ..core.config import EnvyConfig

    if store_data is None:
        store_data = bool(spec.get("store_data", False))
    config = EnvyConfig.scaled(
        num_segments=spec["num_segments"],
        pages_per_segment=spec["pages_per_segment"],
        page_bytes=spec["page_bytes"],
        max_utilization=spec["utilization"],
        cleaning_policy=spec["policy"])
    controller = EnvyController(config, store_data=store_data)
    turnovers = spec.get("prewarm_turnovers", 3.0)
    if turnovers > 0:
        controller.prewarm(turnovers,
                           seed=derive_seed(spec["seed"], 1000 + shard_index))
    return controller


def service_shard_point(point: Mapping) -> Dict:
    """Sweep worker: build, prewarm and run one shard.

    Dispatched by dotted name
    (``"repro.service.executor:service_shard_point"``) so worker
    processes import it fresh; the point carries everything the shard
    needs and the return value is the executor's picklable stats dict,
    plus its per-tenant histogram pairs under ``"latency"``.
    """
    executor = shard_executor(point)
    result = executor.run(point["requests"], rids=point.get("rids"))
    result["latency"] = executor.latency
    return result


def shard_executor(point: Mapping) -> ShardExecutor:
    """One shard, built and prewarmed from its sweep point, ready to
    :meth:`~ShardExecutor.run` or to be fed window by window."""
    shard_index = point["shard_index"]
    controller = build_shard_controller(point, shard_index)
    return ShardExecutor(
        controller, shard_index,
        tenant_names=point["tenant_names"],
        queue_capacity=point["queue_capacity"],
        soft_watermark=point["soft_watermark"],
        hard_watermark=point["hard_watermark"],
        stamp_payloads=point.get("stamp_payloads", False),
        retry_limit=point.get("retry_limit", 0),
        retry_backoff_ns=point.get("retry_backoff_ns", 4000),
        attribute_wear=point.get("attribute_wear", False),
        attribution_window_ns=point.get("attribution_window_ns", 50_000),
        wear_budgets=point.get("wear_budgets"),
        trace=point.get("trace", False),
        cache_pages=point.get("cache_pages", 0),
        cache_policy=point.get("cache_policy", "clock"),
        cache_tenants=point.get("cache_tenants"),
        cache_tenant_caps=point.get("cache_tenant_caps"))
