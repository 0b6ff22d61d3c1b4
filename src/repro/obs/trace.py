"""Request-level tracing: span trees and tail-latency attribution.

Every service request admitted by the front-end carries a deterministic
request id (its index in the merged schedule — a pure function of
``(tenants, duration, seed)``).  When a run is traced, each shard
replay's :class:`RequestTracer` records, per request, an exact
critical-path decomposition of its end-to-end latency plus the child
spans the controller emitted while serving it (buffer flushes, cleaner
copies, erases, fault retries).  :class:`TraceReport` aggregates those
rows: slowest-N listings, per-tenant blame breakdowns for the p99+
tail, and a Perfetto export with flow events linking one request's
spans across shard tracks.

The decomposition is *exact integer arithmetic*, not sampling: every
nanosecond of ``end - original_arrival`` lands in exactly one component,
so the components of any row sum to its latency with zero error
(:meth:`TraceReport.validate` proves it).  The components:

==============  ========================================================
``queue``       waiting behind earlier foreground requests on this shard
``redundancy``  waiting behind ``__redundancy__``/``__rebuild__``
                overhead traffic (replica programs, parity maintenance,
                rebuild copies)
``retry_wait``  backoff between the original arrival and the served
                attempt (queue-full retries)
``throttle``    cleaner-debt soft-watermark penalty
``flush_stall`` write-buffer flush chains (and checkpoints) the request
                stalled on, including background overdraft it paid off
``clean_stall`` cleaner copies and segment erases inside the stall
``fault_retry`` fault-driven program/erase retries inside the stall
``service``     the device access itself (stall-free controller time)
==============  ========================================================

Tracing obeys the bus discipline: executors publish each request as a
``service.request`` span on the controller's :class:`~repro.obs.events.
EventBus`, instrumentation costs one ``bus.active`` check when tracing
is off, and a traced run's simulation metrics are bit-identical to an
untraced one (the test suite verifies both).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .events import SERVICE_REQUEST, EventBus, ObsEvent
from .export import chrome_trace

__all__ = ["COMPONENTS", "RequestTracer", "TraceReport",
           "merge_shard_traces"]

#: Critical-path components, in canonical display order.  Per traced
#: request these are non-negative integers summing exactly to the
#: request's end-to-end latency.
COMPONENTS = ("queue", "redundancy", "retry_wait", "throttle",
              "flush_stall", "clean_stall", "fault_retry", "service")
#: The controller busy buckets a traced request's stall is split over.
_STALLS = ("flush", "clean", "erase", "retry", "checkpoint")


class RequestTracer:
    """One shard replay's request trace.  The replay reports refusals
    (:meth:`refused`) and brackets each served access (:meth:`begin` /
    :meth:`served`).  The tracer is also the replay's bus subscriber:
    spans in a request are its children, spans between requests
    (idle-gap background work) fold into a per-kind summary."""

    def __init__(self, bus: EventBus, shard: int, names: Sequence[str],
                 pseudo: Sequence[bool], busy_ns: Dict[str, int]) -> None:
        self.bus, self.shard, self.names = bus, shard, names
        self.pseudo = pseudo
        self.busy = busy_ns
        self.rows: List[dict] = []
        self.background: Dict[str, List[int]] = {}
        self.children: List[Tuple[str, int, int]] = []
        #: Service footprints of pseudo-tenant rows, pruned as arrivals
        #: pass them: a wait's exact overlap with them is "redundancy".
        self.pseudo_busy: deque = deque()
        #: The open request: its row so far and what :meth:`begin` read.
        self.open: Optional[tuple] = None

    def __call__(self, event: ObsEvent) -> None:
        if event.kind == SERVICE_REQUEST:
            return
        if self.open is not None:
            self.children.append((event.kind, event.t_ns, event.dur_ns))
        elif event.dur_ns:
            slot = self.background.setdefault(event.kind, [0, 0])
            slot[0] += 1
            slot[1] += event.dur_ns

    def _row(self, rid, tenant: int, is_write: bool, outcome: str,
             orig_arrival: int, start_ns: int) -> dict:
        return {"rid": rid, "shard": self.shard, "tenant": self.names[tenant],
                "op": "write" if is_write else "read", "outcome": outcome,
                "arrival_ns": orig_arrival, "start_ns": start_ns}

    def refused(self, outcome: str, rid, tenant: int, is_write: bool,
                orig_arrival: int, arrival: int, attempt: int) -> None:
        """A request refused at ``arrival``; ``outcome`` is the counter."""
        self.rows.append({**self._row(rid, tenant, is_write, outcome,
                                      orig_arrival, arrival),
                          "end_ns": arrival, "latency_ns": 0,
                          "attempts": attempt, "components": {}})

    def begin(self, rid, tenant: int, is_write: bool, orig_arrival: int,
              arrival: int, attempt: int, clock: int, delay: int,
              overdraft: int) -> None:
        """A request reaches the device at ``clock`` after ``delay`` of
        throttle, with ``overdraft`` of background work in flight."""
        red_wait = 0
        if not self.pseudo[tenant]:
            pseudo_busy = self.pseudo_busy
            while pseudo_busy and pseudo_busy[0][1] <= arrival:
                pseudo_busy.popleft()
            for p_start, p_end in pseudo_busy:
                red_wait += p_end - max(p_start, arrival)
        busy = self.busy
        self.open = (self._row(rid, tenant, is_write, "served", orig_arrival,
                               clock - delay),
                     tenant, arrival, attempt, delay, red_wait, overdraft,
                     [busy.get(key, 0) for key in _STALLS])
        self.bus.sync(clock)

    def served(self, clock: int, overdraft: int) -> None:
        """The open request is served by ``clock``: its row, with the
        exact decomposition, and its ``service.request`` span."""
        (row, tenant, arrival, attempt, delay, red_wait, overdraft0,
         busy0) = self.open
        self.open = None
        busy = self.busy
        deltas = [busy.get(key, 0) - before
                  for key, before in zip(_STALLS, busy0)]
        d_flush, d_clean, d_erase, d_retry, d_ckpt = deltas
        overdraft_paid = overdraft0 - overdraft
        start = row["start_ns"]
        components = {
            "queue": start - arrival - red_wait,
            "redundancy": red_wait,
            "retry_wait": arrival - row["arrival_ns"],
            "throttle": delay,
            "flush_stall": d_flush + d_ckpt + overdraft_paid,
            "clean_stall": d_clean + d_erase,
            "fault_retry": d_retry,
            "service": (clock - start) - delay - overdraft_paid - sum(deltas),
        }
        row.update(end_ns=clock, latency_ns=clock - row["arrival_ns"],
                   attempts=attempt, components=components,
                   children=self.children)
        self.rows.append(row)
        self.children = []
        self.bus.emit(_request_event(row, clock - start))
        if self.pseudo[tenant]:
            self.pseudo_busy.append((start, clock))

    def payload(self) -> dict:
        return {"rows": self.rows, "background": self.background}


def _request_event(row: dict, dur_ns: int) -> ObsEvent:
    """A served row's ``service.request`` span."""
    return ObsEvent(SERVICE_REQUEST, row["start_ns"], dur_ns,
                    {"rid": row["rid"], "tenant": row["tenant"],
                     "shard": row["shard"], "op": row["op"],
                     **row["components"]})


def merge_shard_traces(shard_traces: Iterable[Optional[dict]]
                       ) -> Tuple[List[dict], Dict[str, List[int]]]:
    """Merge per-shard trace payloads deterministically.

    Shard results arrive in shard order (``run_sweep`` preserves input
    order); rows merge sorted by ``(rid, shard, start_ns)`` so the
    merged stream is identical for every ``jobs`` setting, and the
    background summaries (untraced controller work between requests)
    add per kind.
    """
    rows: List[dict] = []
    background: Dict[str, List[int]] = {}
    for payload in shard_traces:
        if not payload:
            continue
        rows.extend(payload.get("rows", ()))
        for kind, (count, total_ns) in payload.get("background",
                                                   {}).items():
            slot = background.setdefault(kind, [0, 0])
            slot[0] += count
            slot[1] += total_ns
    rows.sort(key=lambda row: (row["rid"], row["shard"],
                               row["start_ns"]))
    return rows, background


class TraceReport:
    """Merged request trace of one service run."""

    def __init__(self, rows: List[dict],
                 background: Optional[Dict[str, List[int]]] = None,
                 num_shards: int = 1) -> None:
        #: Every traced row (served, rejected and pseudo-tenant rows),
        #: sorted by ``(rid, shard, start_ns)``.
        self.rows = rows
        #: Untraced controller work between requests: kind ->
        #: ``[count, total_ns]``.
        self.background = background or {}
        self.num_shards = num_shards

    # ------------------------------------------------------------------
    # Row views
    # ------------------------------------------------------------------

    def served(self, include_pseudo: bool = False) -> List[dict]:
        """Rows that completed service (the ones with latency)."""
        return [row for row in self.rows
                if row["outcome"] == "served"
                and (include_pseudo or not row["tenant"].startswith("__"))]

    def slowest(self, n: int = 10) -> List[dict]:
        """The n slowest served foreground requests, ties broken by
        ``(rid, shard)`` so the listing is deterministic."""
        return sorted(self.served(),
                      key=lambda row: (-row["latency_ns"], row["rid"],
                                       row["shard"]))[:n]

    # ------------------------------------------------------------------
    # Validation (the 1ns acceptance criterion, met with 0ns to spare)
    # ------------------------------------------------------------------

    def validate(self) -> int:
        """Worst absolute error between a served row's component sum and
        its end-to-end latency, in nanoseconds.  Exact decomposition
        means this returns 0."""
        worst = 0
        for row in self.served(include_pseudo=True):
            err = abs(sum(row["components"][c] for c in COMPONENTS)
                      - row["latency_ns"])
            if err > worst:
                worst = err
        return worst

    # ------------------------------------------------------------------
    # Tail blame
    # ------------------------------------------------------------------

    def blame(self, percentile: float = 99.0) -> Dict[str, dict]:
        """Per-tenant component blame for the latency tail.

        For each tenant, the threshold is the exact ``percentile``-th
        latency of its served requests (nearest-rank on the true sorted
        latencies — no histogram quantization); rows at or above it are
        the tail, and their components sum into blame *shares* (each
        component's fraction of the tail's total latency).  Pure integer
        sums divided once at the end, so shares are identical across
        reruns and ``--jobs``.
        """
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        per_tenant: Dict[str, List[dict]] = {}
        for row in self.served():
            per_tenant.setdefault(row["tenant"], []).append(row)
        report: Dict[str, dict] = {}
        for tenant in sorted(per_tenant):
            rows = per_tenant[tenant]
            latencies = sorted(row["latency_ns"] for row in rows)
            rank = max(1, -(-len(latencies) * int(percentile * 100)
                            // 10_000))  # ceil at 0.01% resolution
            threshold = latencies[rank - 1]
            tail = [row for row in rows
                    if row["latency_ns"] >= threshold]
            sums = {component: 0 for component in COMPONENTS}
            for row in tail:
                for component in COMPONENTS:
                    sums[component] += row["components"][component]
            total = sum(sums.values())
            report[tenant] = {
                "requests": len(rows),
                "tail_requests": len(tail),
                "threshold_ns": threshold,
                "tail_total_ns": total,
                "component_ns": sums,
                "shares": {component: (round(sums[component] / total, 6)
                                       if total else 0.0)
                           for component in COMPONENTS},
            }
        return report

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def to_events(self) -> List[ObsEvent]:
        """Every traced request as a ``service.request`` span plus its
        child spans, in merged row order."""
        events: List[ObsEvent] = []
        for row in self.rows:
            if row["outcome"] != "served":
                continue
            events.append(_request_event(
                row, max(1, row["end_ns"] - row["start_ns"])))
            for kind, t_ns, dur_ns in row.get("children", ()):
                events.append(ObsEvent(kind, t_ns, dur_ns,
                                       {"shard": row["shard"],
                                        "rid": row["rid"]}))
        return events

    def chrome_trace(self,
                     process_name: str = "eNVy service (traced)") -> str:
        """Perfetto JSON: per-shard ``shard<N>`` tracks, one span per
        request, flow arrows linking rows that share a rid (replica /
        parity fan-out)."""
        return chrome_trace(self.to_events(), process_name,
                            flow_key="rid")

    def to_jsonl(self) -> str:
        """One JSON object per traced row (ends with newline)."""
        lines = [json.dumps(row, sort_keys=True) for row in self.rows]
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> dict:
        """Deterministic summary (the determinism tests compare this)."""
        served = self.served()
        outcomes = Counter(row["outcome"] for row in self.rows)
        return {
            "rows": len(self.rows),
            "served": len(served),
            "outcomes": {key: outcomes[key] for key in sorted(outcomes)},
            "max_decomposition_error_ns": self.validate(),
            "blame": self.blame(),
            "background": {kind: list(self.background[kind])
                           for kind in sorted(self.background)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceReport({len(self.rows)} rows, "
                f"{len(self.served())} served, "
                f"{self.num_shards} shards)")
