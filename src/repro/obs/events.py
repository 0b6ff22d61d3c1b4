"""Typed event bus: the single spine every subsystem publishes to.

Before this module each layer reported through its own side channel —
the store's ``observer`` callback, the array's ``fault_listeners`` — and
anything that wanted a global picture had to subscribe to all of them
and reconcile clocks.  The bus unifies them: the controller owns one :class:`EventBus`, every subsystem
publishes :class:`ObsEvent` records onto it, and consumers (the
observability hub, exporters) subscribe by kind prefix.

Zero overhead when disabled
---------------------------

The bus is *always present* (``controller.events``) but dormant until
someone subscribes.  Publishers guard each emission with a single
attribute test::

    bus = self.events
    if bus.active:
        bus.emit_span(HOST_READ, access_ns, {"page": page})

so a run with no subscribers pays one boolean check per instrumented
operation and never constructs an event object.  The instrumentation is
purely observational — it charges no time and mutates no simulation
state — so enabling it cannot perturb the cost model (the test suite
verifies metrics are bit-identical either way).

Simulated-time clock
--------------------

``EventBus.clock_ns`` is the observability timeline: publishers advance
it by each span's duration, and the timed simulator syncs it to
transaction arrival times so idle gaps appear in exported traces.  The
clock exists only for observers; the simulation's own accounting never
reads it.

Event taxonomy (kind strings, hierarchical by prefix):

======================  ================================================
``host.read/.write``    one host page access (span; data: page); a
                        ``host.read`` with ``count`` stands for that
                        many equal back-to-back reads of the page (a
                        run's repeats), ``dur_ns`` being their total
``buffer.flush``        write-buffer pages programmed to Flash (span)
``clean.copy``          cleaner survivor copies during a clean (span)
``clean.transfer``      pages migrated between positions (span)
``clean.rescue``        flushed-copy rescue programs (span)
``clean.erase``         segment erase (span)
``retry.program/.erase``fault-driven repeated operations (span)
``fault.*``             injected faults / defences (instant; wraps
                        :class:`~repro.faults.plan.FaultEvent`)
``checkpoint.begin``    metadata checkpoint started (instant)
``checkpoint.commit``   checkpoint complete (span; data: id, chunks)
``checkpoint.disabled`` checkpointing shut itself off (instant)
``wear.swap``           wear-leveling segment swap (instant)
``chaos.kill``          simulated power cut fired (instant)
``service.run``         service run started, before any window is drawn
                        (instant; data: shards, tenants — the admitted
                        count is ``ServiceStats.requests_admitted``)
``service.shard``       one shard's run summary (instant)
``service.batch``       a coalesced write batch closed (span; data:
                        shard, pages)
``service.reject``      admission control refused a request (instant;
                        data: shard, tenant, reason)
``service.throttle``    cleaner-debt backpressure delayed a write
                        (instant; data: shard, tenant, delay_ns)
``service.retry``       queue-full rejection converted into a delayed
                        retry (instant; data: shard, tenant, attempt)
``service.request``     one traced service request, end to end (span;
                        data: rid, tenant, shard, op, and the exact
                        critical-path component breakdown — see
                        :mod:`repro.obs.trace`)
``redundancy.replica``  extra program/read charged for a replica or
                        parity placement (instant; data: bank, kind)
``redundancy.kill``     a whole bank was declared dead (instant; data:
                        bank)
``redundancy.degraded`` a request was served degraded — redirected to
                        a mirror or reconstructed from parity (instant;
                        data: page, bank, source)
``redundancy.rebuild``  one rebuild batch copied onto a replacement
                        bank (span; data: bank, pages, done, total)
``redundancy.rebalance``a hot logical page was remapped to another
                        bank (instant; data: page, from, to)
``security.flag``       the attack detector flagged a tenant (instant;
                        data: tenant, signals)
``security.quarantine`` a tenant's token bucket was degraded (instant;
                        data: tenant, rate_tps)
``security.remap``      a flagged tenant's hot page was scattered to a
                        randomized placement (instant; data: tenant,
                        page, peer)
``cache.hit``           read served from the DRAM cache tier (instant;
                        data: shard, tenant, page)
``cache.miss``          cache-tier read fell through to Flash (instant;
                        data: shard, tenant, page)
``cache.evict``         a resident page was displaced (instant; data:
                        shard, page)
``cache.invalidate``    an entry was dropped because its backing copy
                        changed (instant; data: shard, page, reason —
                        "write", "clean", or "topology")
``admission.decision``  the closed-loop admission controller changed a
                        tenant's state (instant; data: tenant, state,
                        burn, rate_tps)
======================  ================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ObsEvent", "EventBus",
    "HOST_READ", "HOST_WRITE", "BUFFER_FLUSH", "CLEAN_COPY",
    "CLEAN_TRANSFER", "CLEAN_RESCUE", "CLEAN_ERASE", "RETRY_PROGRAM",
    "RETRY_ERASE", "FAULT_PREFIX", "CHECKPOINT_BEGIN", "CHECKPOINT_COMMIT",
    "CHECKPOINT_DISABLED", "WEAR_SWAP", "CHAOS_KILL",
    "SERVICE_RUN", "SERVICE_SHARD", "SERVICE_BATCH", "SERVICE_REJECT",
    "SERVICE_THROTTLE", "SERVICE_RETRY", "SERVICE_REQUEST",
    "REDUNDANCY_REPLICA", "REDUNDANCY_KILL", "REDUNDANCY_DEGRADED",
    "REDUNDANCY_REBUILD", "REDUNDANCY_REBALANCE",
    "SECURITY_FLAG", "SECURITY_QUARANTINE", "SECURITY_REMAP",
    "CACHE_HIT", "CACHE_MISS", "CACHE_EVICT", "CACHE_INVALIDATE",
    "ADMISSION_DECISION",
]

HOST_READ = "host.read"
HOST_WRITE = "host.write"
BUFFER_FLUSH = "buffer.flush"
CLEAN_COPY = "clean.copy"
CLEAN_TRANSFER = "clean.transfer"
CLEAN_RESCUE = "clean.rescue"
CLEAN_ERASE = "clean.erase"
RETRY_PROGRAM = "retry.program"
RETRY_ERASE = "retry.erase"
FAULT_PREFIX = "fault."
CHECKPOINT_BEGIN = "checkpoint.begin"
CHECKPOINT_COMMIT = "checkpoint.commit"
CHECKPOINT_DISABLED = "checkpoint.disabled"
WEAR_SWAP = "wear.swap"
CHAOS_KILL = "chaos.kill"
SERVICE_RUN = "service.run"
SERVICE_SHARD = "service.shard"
SERVICE_BATCH = "service.batch"
SERVICE_REJECT = "service.reject"
SERVICE_THROTTLE = "service.throttle"
SERVICE_RETRY = "service.retry"
SERVICE_REQUEST = "service.request"
REDUNDANCY_REPLICA = "redundancy.replica"
REDUNDANCY_KILL = "redundancy.kill"
REDUNDANCY_DEGRADED = "redundancy.degraded"
REDUNDANCY_REBUILD = "redundancy.rebuild"
REDUNDANCY_REBALANCE = "redundancy.rebalance"
SECURITY_FLAG = "security.flag"
SECURITY_QUARANTINE = "security.quarantine"
SECURITY_REMAP = "security.remap"
CACHE_HIT = "cache.hit"
CACHE_MISS = "cache.miss"
CACHE_EVICT = "cache.evict"
CACHE_INVALIDATE = "cache.invalidate"
ADMISSION_DECISION = "admission.decision"

#: Store-observer event names -> bus kinds (the store predates the bus
#: and keeps its compact names; the controller translates).
STORE_EVENT_KINDS = {
    "program": BUFFER_FLUSH,
    "clean_copy": CLEAN_COPY,
    "transfer": CLEAN_TRANSFER,
    "rescue": CLEAN_RESCUE,
    "erase": CLEAN_ERASE,
}


@dataclass(frozen=True)
class ObsEvent:
    """One observed occurrence on the simulated timeline.

    ``t_ns`` is the event's start on the observability clock; spans
    carry their duration in ``dur_ns`` (instant events use 0).  ``data``
    holds a small JSON-serialisable payload whose keys depend on the
    kind (see the module taxonomy table).
    """

    kind: str
    t_ns: int
    dur_ns: int = 0
    data: Optional[Dict[str, object]] = None

    def as_dict(self) -> dict:
        """Flat JSON-friendly form (the JSONL export row)."""
        row = {"kind": self.kind, "t_ns": self.t_ns, "dur_ns": self.dur_ns}
        if self.data:
            row.update(self.data)
        return row


class EventBus:
    """Prefix-filtered publish/subscribe hub with a simulated clock."""

    __slots__ = ("clock_ns", "active", "_subscribers")

    def __init__(self) -> None:
        #: Observability timeline in simulated nanoseconds.
        self.clock_ns = 0
        #: True iff at least one subscriber is attached.  Publishers
        #: check this before constructing events — the entire cost of a
        #: disabled bus is this boolean.
        self.active = False
        self._subscribers: List[Tuple[Optional[str],
                                      Callable[[ObsEvent], None]]] = []

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------

    def subscribe(self, handler: Callable[[ObsEvent], None],
                  prefix: Optional[str] = None) -> None:
        """Register ``handler`` for events whose kind starts with
        ``prefix`` (None = every event)."""
        self._subscribers.append((prefix, handler))
        self.active = True

    def unsubscribe(self, handler: Callable[[ObsEvent], None]) -> None:
        """Drop every registration of ``handler`` (missing is a no-op)."""
        self._subscribers = [(p, h) for p, h in self._subscribers
                             if h is not handler]
        self.active = bool(self._subscribers)

    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------

    def emit(self, event: ObsEvent) -> None:
        """Deliver ``event`` to every matching subscriber."""
        for prefix, handler in self._subscribers:
            if prefix is None or event.kind.startswith(prefix):
                handler(event)

    def emit_span(self, kind: str, dur_ns: int,
                  data: Optional[Dict[str, object]] = None) -> None:
        """Emit a span starting now and advance the clock past it."""
        self.emit(ObsEvent(kind, self.clock_ns, dur_ns, data))
        self.clock_ns += dur_ns

    def mark(self, kind: str,
             data: Optional[Dict[str, object]] = None) -> None:
        """Emit an instant event at the current clock."""
        self.emit(ObsEvent(kind, self.clock_ns, 0, data))

    def sync(self, t_ns: int) -> None:
        """Advance the clock to ``t_ns`` if it is ahead (never rewinds)."""
        if t_ns > self.clock_ns:
            self.clock_ns = t_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EventBus(clock={self.clock_ns}ns, "
                f"{len(self._subscribers)} subscribers)")
