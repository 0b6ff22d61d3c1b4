"""Exporters: simulated-timeline and metrics data in standard formats.

Three consumers, three formats:

* **Chrome trace / Perfetto JSON** (:func:`chrome_trace`) — the simulated
  timeline as complete ("X") and instant ("i") events, with each
  subsystem on its own named track so host operations and cleaning spans
  interleave visually exactly as they do in simulated time.  Events that
  carry a ``shard`` (or ``bank``) in their payload land on per-shard
  tracks named ``shard<N>``, and ``flow_key`` links one request's spans
  across those tracks with Perfetto flow arrows.  Open the file at
  https://ui.perfetto.dev ("Open trace file") or ``chrome://tracing``.
* **Prometheus text exposition** (:func:`prometheus_text`) — the
  controller counters and latency histograms — plus, given service-level
  stats, per-tenant ``envy_service_*`` and ``envy_security_*`` series —
  in the plain-text scrape format, so a run's final state can be diffed,
  plotted, or pushed to a gateway without custom parsing.
* **JSONL** (:func:`events_jsonl`, :func:`timeseries_json`) — raw event
  and window dumps for ad-hoc analysis (one JSON object per line; pipe
  through ``jq``).

All functions return strings; callers own file placement.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

from .events import ObsEvent
from .hist import LatencyHistogram

__all__ = ["chrome_trace", "prometheus_text", "service_prometheus_text",
           "events_jsonl", "timeseries_json", "TRACKS", "SHARD_TRACK_BASE"]

#: Kind prefix -> (tid, track name).  First matching prefix wins, so
#: every subsystem renders on its own named row in Perfetto.  Service-
#: layer kinds carrying a ``shard``/``bank`` payload override these with
#: a per-shard track (see :func:`_track_of`).
TRACKS = [
    ("host.", 1, "host ops"),
    ("buffer.", 2, "write buffer"),
    ("clean.", 3, "cleaner"),
    ("checkpoint.", 4, "checkpoint"),
    ("retry.", 5, "faults"),
    ("fault.", 5, "faults"),
    ("wear.", 6, "wear leveling"),
    ("chaos.", 7, "chaos"),
    ("service.", 8, "service"),
    ("redundancy.", 9, "redundancy"),
    ("security.", 10, "security"),
]
_DEFAULT_TID = 11
_DEFAULT_TRACK = "other"

#: Per-shard tracks start here: shard N renders on tid
#: ``SHARD_TRACK_BASE + N`` named ``shard<N>``.
SHARD_TRACK_BASE = 16

#: Kind prefixes whose events move to a ``shard<N>`` track when their
#: payload names the shard/bank they happened on.
_SHARDED_PREFIXES = ("service.", "redundancy.")


def _track_of(kind: str, data: Optional[dict] = None) -> int:
    """Stable track (tid) for one event.

    Subsystem prefixes map through :data:`TRACKS`; service and
    redundancy events that name a ``shard`` (or ``bank``) land on that
    shard's own ``shard<N>`` track instead, so per-request spans from
    different banks render as parallel rows.
    """
    if data and kind.startswith(_SHARDED_PREFIXES):
        where = data.get("shard", data.get("bank"))
        if isinstance(where, int) and where >= 0:
            return SHARD_TRACK_BASE + where
    for prefix, tid, _ in TRACKS:
        if kind.startswith(prefix):
            return tid
    return _DEFAULT_TID


def _track_name(tid: int) -> str:
    if tid >= SHARD_TRACK_BASE:
        return f"shard{tid - SHARD_TRACK_BASE}"
    for _, track_tid, name in TRACKS:
        if tid == track_tid:
            return name
    return _DEFAULT_TRACK


def chrome_trace(events: Iterable[ObsEvent],
                 process_name: str = "eNVy (simulated)",
                 flow_key: Optional[str] = None) -> str:
    """Serialise events as a Chrome-trace JSON document (Perfetto).

    Timestamps and durations convert from simulated nanoseconds to the
    trace format's microseconds; sub-microsecond spans keep their
    precision as fractional values.

    ``flow_key`` names a payload key (e.g. ``"rid"``) whose value
    identifies one logical request: span events sharing a value are
    linked with flow events (ph ``s``/``t``/``f``), which Perfetto draws
    as arrows between the spans — across shard tracks if the request
    fanned out to replicas.
    """
    trace_events: List[dict] = [{
        "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
        "args": {"name": process_name},
    }]
    seen_tids = set()
    rows = []
    flows: Dict[object, List[dict]] = {}
    for event in events:
        tid = _track_of(event.kind, event.data)
        seen_tids.add(tid)
        row = {
            "name": event.kind,
            "pid": 1,
            "tid": tid,
            "ts": event.t_ns / 1e3,
        }
        if event.dur_ns > 0:
            row["ph"] = "X"
            row["dur"] = event.dur_ns / 1e3
        else:
            row["ph"] = "i"
            row["s"] = "t"
        if event.data:
            row["args"] = dict(event.data)
            if (flow_key is not None and event.dur_ns > 0
                    and flow_key in event.data):
                flows.setdefault(event.data[flow_key], []).append(row)
        rows.append(row)
    names = {tid: name for _, tid, name in TRACKS}
    names[_DEFAULT_TID] = _DEFAULT_TRACK
    for tid in sorted(seen_tids):
        trace_events.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": names.get(tid, _track_name(tid))},
        })
    trace_events.extend(rows)
    if flow_key is not None:
        flow_id = 0
        for value in sorted(flows, key=str):
            group = flows[value]
            if len(group) < 2:
                continue  # a flow needs two ends
            flow_id += 1
            for index, row in enumerate(group):
                ph = ("s" if index == 0
                      else "f" if index == len(group) - 1 else "t")
                flow = {
                    "ph": ph, "pid": 1, "tid": row["tid"],
                    "ts": row["ts"], "id": flow_id,
                    "name": f"{flow_key}:{value}", "cat": "flow",
                }
                if ph == "f":
                    flow["bp"] = "e"  # bind to the enclosing slice
                trace_events.append(flow)
    return json.dumps({"traceEvents": trace_events,
                       "displayTimeUnit": "ns"})


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

#: ControllerMetrics counter attribute -> (metric name, help text).
_COUNTERS = [
    ("reads", "envy_reads_total", "Host page reads serviced"),
    ("writes", "envy_writes_total", "Host page writes serviced"),
    ("buffer_hits", "envy_buffer_hits_total",
     "Writes absorbed by the SRAM write buffer"),
    ("copy_on_writes", "envy_copy_on_writes_total",
     "Flash pages copied into SRAM on write"),
    ("flushes", "envy_flushes_total", "Buffer pages programmed to Flash"),
    ("clean_copies", "envy_clean_copies_total",
     "Pages copied by the cleaner"),
    ("erases", "envy_erases_total", "Segment erases"),
    ("wear_swaps", "envy_wear_swaps_total", "Wear-leveling segment swaps"),
    ("ecc_corrected", "envy_ecc_corrected_total",
     "Reads corrected by SEC-DED"),
    ("ecc_uncorrectable", "envy_ecc_uncorrectable_total",
     "Reads with uncorrectable corruption"),
    ("program_retries", "envy_program_retries_total",
     "Transient program failures retried"),
    ("erase_retries", "envy_erase_retries_total",
     "Transient erase failures retried"),
    ("bad_blocks_retired", "envy_bad_blocks_retired_total",
     "Segments retired as bad blocks"),
    ("checkpoints_written", "envy_checkpoints_total",
     "Metadata checkpoints written"),
]


def _labels(labels: Optional[Dict[str, object]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{labels[key]}"' for key in labels)
    return "{" + inner + "}"


def _histogram_lines(name: str, help_text: str, hist: LatencyHistogram,
                     labels: Optional[Dict[str, object]] = None,
                     with_header: bool = True) -> List[str]:
    lines = ([f"# HELP {name} {help_text}", f"# TYPE {name} histogram"]
             if with_header else [])
    label_str = _labels(labels)
    base = dict(labels) if labels else {}
    cumulative = 0
    for _, high, count in hist.iter_buckets():
        cumulative += count
        lines.append(
            f'{name}_bucket{_labels(dict(base, le=high))} {cumulative}')
    lines.append(
        f'{name}_bucket{_labels(dict(base, le="+Inf"))} {hist.count}')
    lines.append(f"{name}_sum{label_str} {hist.total_ns}")
    lines.append(f"{name}_count{label_str} {hist.count}")
    return lines


def prometheus_text(metrics) -> str:
    """Render a :class:`~repro.core.metrics.ControllerMetrics` in the
    Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for attr, name, help_text in _COUNTERS:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {getattr(metrics, attr)}")
    lines.append("# HELP envy_busy_ns_total Controller time by activity")
    lines.append("# TYPE envy_busy_ns_total counter")
    for activity in sorted(metrics.busy_ns):
        lines.append(f'envy_busy_ns_total{{activity="{activity}"}} '
                     f'{metrics.busy_ns[activity]}')
    lines.extend(_histogram_lines(
        "envy_read_latency_ns", "Host read latency (simulated ns)",
        metrics.read_latency))
    lines.extend(_histogram_lines(
        "envy_write_latency_ns", "Host write latency (simulated ns)",
        metrics.write_latency))
    return "\n".join(lines) + "\n"


#: Per-tenant service gauges taken straight off TenantStats attributes.
_SERVICE_COUNTERS = [
    ("throttled", "envy_service_throttled_total",
     "Requests refused by the tenant's token bucket"),
    ("delayed", "envy_service_delayed_total",
     "Writes delayed by cleaner-debt backpressure"),
    ("retried", "envy_service_retried_total",
     "Queue-full rejections absorbed as deferred retries"),
]


def service_prometheus_text(stats, security: Optional[dict] = None,
                            slo: Optional[dict] = None,
                            admission: Optional[dict] = None) -> str:
    """Per-tenant service (and security) series in Prometheus text.

    ``stats`` is a :class:`~repro.service.frontend.ServiceStats`;
    ``security`` the ``health_report()["security"]`` section (quarantine
    verdicts and detector flags); ``slo`` the ``health_report()["slo"]``
    section (burn rates); ``admission`` the ``health_report()
    ["admission"]`` section (closed-loop ladder states).  Runs with a
    DRAM cache tier additionally export ``envy_cache_*`` series.  Label
    sets iterate tenants in stats order and label values sorted, so two
    runs with the same seed produce byte-identical text at any
    ``--jobs`` setting.
    """
    lines: List[str] = []
    tenants = list(stats.tenants.items())

    lines.append("# HELP envy_service_requests_total "
                 "Requests served, by tenant and operation")
    lines.append("# TYPE envy_service_requests_total counter")
    for name, tstats in tenants:
        for op, count in (("read", tstats.reads), ("write", tstats.writes)):
            lines.append(f'envy_service_requests_total'
                         f'{{tenant="{name}",op="{op}"}} {count}')

    lines.append("# HELP envy_service_rejected_total "
                 "Requests rejected at admission, by tenant and reason")
    lines.append("# TYPE envy_service_rejected_total counter")
    for name, tstats in tenants:
        reasons = [("queue_full", tstats.rejected_queue),
                   ("cleaner_behind", tstats.rejected_shed),
                   ("wear_budget", tstats.rejected_wear)]
        for reason, count in reasons:
            lines.append(f'envy_service_rejected_total'
                         f'{{tenant="{name}",reason="{reason}"}} {count}')

    for attr, name, help_text in _SERVICE_COUNTERS:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} counter")
        for tenant, tstats in tenants:
            lines.append(f'{name}{{tenant="{tenant}"}} '
                         f'{getattr(tstats, attr)}')

    for op in ("read", "write"):
        name = f"envy_service_{op}_latency_ns"
        lines.append(f"# HELP {name} Tenant {op} latency (simulated ns)")
        lines.append(f"# TYPE {name} histogram")
        for tenant, tstats in tenants:
            lines.extend(_histogram_lines(
                name, "", getattr(tstats, f"{op}_latency"),
                labels={"tenant": tenant}, with_header=False))
    for quantile in ("50", "99"):
        name = f"envy_service_latency_p{quantile}_ns"
        lines.append(f"# HELP {name} Tenant p{quantile} latency "
                     f"(simulated ns)")
        lines.append(f"# TYPE {name} gauge")
        for tenant, tstats in tenants:
            for op in ("read", "write"):
                value = getattr(tstats, f"{op}_latency").percentile(
                    float(quantile))
                lines.append(f'{name}{{tenant="{tenant}",op="{op}"}} '
                             f'{value}')

    cached_run = (stats.cache_hits or stats.cache_misses
                  or stats.cache_evictions or stats.cache_invalidations)
    if cached_run:
        lines.append("# HELP envy_cache_requests_total "
                     "DRAM cache-tier probes, by tenant and outcome")
        lines.append("# TYPE envy_cache_requests_total counter")
        for name, tstats in tenants:
            for outcome, count in (("hit", tstats.cache_hits),
                                   ("miss", tstats.cache_misses)):
                lines.append(f'envy_cache_requests_total'
                             f'{{tenant="{name}",outcome="{outcome}"}} '
                             f'{count}')
        lines.append("# HELP envy_cache_evictions_total "
                     "Pages displaced from the DRAM cache tier")
        lines.append("# TYPE envy_cache_evictions_total counter")
        lines.append(f"envy_cache_evictions_total "
                     f"{stats.cache_evictions}")
        lines.append("# HELP envy_cache_invalidations_total "
                     "Cache entries dropped (writes, cleaner copies, "
                     "topology changes)")
        lines.append("# TYPE envy_cache_invalidations_total counter")
        lines.append(f"envy_cache_invalidations_total "
                     f"{stats.cache_invalidations}")
        lines.append("# HELP envy_cache_hit_rate "
                     "Service-wide cache hit rate of the last run")
        lines.append("# TYPE envy_cache_hit_rate gauge")
        lines.append(f"envy_cache_hit_rate "
                     f"{round(stats.cache_hit_rate, 6)}")

    if admission:
        states = admission.get("states", {})
        lines.append("# HELP envy_admission_state "
                     "Closed-loop admission ladder position "
                     "(1 = tenant is in the labelled state)")
        lines.append("# TYPE envy_admission_state gauge")
        for tenant in sorted(states):
            lines.append(f'envy_admission_state{{tenant="{tenant}",'
                         f'state="{states[tenant]}"}} 1')
        overrides = admission.get("rate_overrides", {})
        lines.append("# HELP envy_admission_rate_tps "
                     "Throttle/shed token-bucket override for next run")
        lines.append("# TYPE envy_admission_rate_tps gauge")
        for tenant in sorted(overrides):
            lines.append(f'envy_admission_rate_tps'
                         f'{{tenant="{tenant}"}} {overrides[tenant]}')

    if security is not None:
        lines.append("# HELP envy_security_quarantined "
                     "1 if the tenant is quarantined (value: capped tps)")
        lines.append("# TYPE envy_security_quarantined gauge")
        for tenant in sorted(security.get("quarantined", {})):
            rate = security["quarantined"][tenant]
            lines.append(
                f'envy_security_quarantined{{tenant="{tenant}"}} {rate}')
        lines.append("# HELP envy_security_flagged "
                     "1 if the attack detector flagged the tenant")
        lines.append("# TYPE envy_security_flagged gauge")
        flagged = security.get("flagged") or []
        flagged_names = sorted(
            entry.get("tenant", entry) if isinstance(entry, dict)
            else entry for entry in flagged)
        for tenant in flagged_names:
            lines.append(
                f'envy_security_flagged{{tenant="{tenant}"}} 1')

    if slo:
        lines.append("# HELP envy_slo_burn_rate "
                     "Error-budget burn rate, by tenant and window")
        lines.append("# TYPE envy_slo_burn_rate gauge")
        for tenant in sorted(slo):
            burn = slo[tenant].get("burn", {})
            for window in sorted(burn):
                lines.append(
                    f'envy_slo_burn_rate{{tenant="{tenant}",'
                    f'window="{window}"}} {burn[window]}')
        lines.append("# HELP envy_slo_violations_total "
                     "SLO-violating requests, by tenant and objective")
        lines.append("# TYPE envy_slo_violations_total counter")
        for tenant in sorted(slo):
            for objective in ("read", "write"):
                entry = slo[tenant].get(objective)
                if entry is not None:
                    lines.append(
                        f'envy_slo_violations_total{{tenant="{tenant}",'
                        f'objective="{objective}_p99"}} '
                        f'{entry["violations"]}')
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSONL / JSON dumps
# ----------------------------------------------------------------------

def events_jsonl(events: Iterable[ObsEvent]) -> str:
    """One JSON object per line, in event order (ends with newline)."""
    lines = [json.dumps(event.as_dict()) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def timeseries_json(windows, include_arrays: bool = True) -> str:
    """The sampler's windows as a JSON array of flat objects."""
    rows = [w.as_dict(include_arrays) for w in windows]
    return json.dumps(rows, indent=1)
