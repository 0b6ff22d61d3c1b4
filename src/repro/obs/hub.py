"""The observability hub: one attach point that turns everything on.

:class:`ObservabilityHub` subscribes to a controller's event bus and,
from the single event stream, maintains every derived view at once:

* the raw event list (bounded; overflow is counted, never silent),
* per-kind counts and per-kind *duration* histograms (how long do
  erases take vs flushes vs host reads),
* the windowed time-series sampler (driven by event timestamps), and
* export helpers for the Chrome-trace / Prometheus / JSONL formats.

Attaching a hub flips the bus active; detaching it returns the
controller to the zero-overhead disabled state.  The hub also registers
itself as ``controller.observability`` so ``health_report()`` can fold
in percentiles and the latest window.

Usage::

    ctrl = EnvyController(config)
    hub = ObservabilityHub(ctrl, sample_interval_ns=1_000_000)
    ... run workload ...
    hub.close()                     # stop observing, close last window
    hub.write_exports("out/")       # trace.json, metrics.prom, ...
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .events import EventBus, ObsEvent
from .export import (chrome_trace, events_jsonl, prometheus_text,
                     timeseries_json)
from .hist import LatencyHistogram
from .timeseries import TimeSeriesSampler, Window

__all__ = ["ObservabilityHub"]


class ObservabilityHub:
    """Subscribes to a controller's bus and maintains all derived views."""

    def __init__(self, controller, sample_interval_ns: int = 1_000_000,
                 max_events: int = 500_000,
                 keep_events: bool = True) -> None:
        self.controller = controller
        self.max_events = max_events
        self.keep_events = keep_events
        #: Raw events in emission order (capped at ``max_events``).
        self.events: List[ObsEvent] = []
        #: Events discarded after the cap was hit (never silent).
        self.dropped_events = 0
        self.kind_counts: Dict[str, int] = {}
        #: Span-duration histograms, one per event kind with ``dur_ns``.
        self.span_histograms: Dict[str, LatencyHistogram] = {}
        self.sampler = TimeSeriesSampler(controller, sample_interval_ns)
        self.closed = False
        controller.events.subscribe(self._on_event)
        controller.observability = self

    # ------------------------------------------------------------------

    def _on_event(self, event: ObsEvent) -> None:
        kind = event.kind
        # A counted span (HOST_READ repeats) stands for ``count`` equal
        # back-to-back spans.
        count = event.data.get("count", 1) if event.data else 1
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + count
        if event.dur_ns > 0:
            hist = self.span_histograms.get(kind)
            if hist is None:
                hist = self.span_histograms[kind] = LatencyHistogram()
            hist.record_n(event.dur_ns // count, count)
        if self.keep_events:
            if len(self.events) < self.max_events:
                self.events.append(event)
            else:
                self.dropped_events += 1
        self.sampler.observe(event.t_ns + event.dur_ns)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop observing and close the trailing sampler window.

        The collected data stays readable (and the hub stays registered
        as ``controller.observability``); only the subscription ends, so
        the bus returns to its zero-overhead state if nothing else is
        attached.
        """
        if self.closed:
            return
        self.controller.events.unsubscribe(self._on_event)
        self.sampler.flush()
        self.closed = True

    def latest_window(self) -> Optional[Window]:
        return self.sampler.latest()

    def total_events(self) -> int:
        return sum(self.kind_counts.values())

    def time_by_kind(self) -> Dict[str, int]:
        """Total simulated span time per kind, descending."""
        totals = {kind: hist.total_ns
                  for kind, hist in self.span_histograms.items()}
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def chrome_trace_json(self) -> str:
        return chrome_trace(self.events)

    def prometheus(self) -> str:
        return prometheus_text(self.controller.metrics)

    def events_jsonl(self) -> str:
        return events_jsonl(self.events)

    def timeseries(self, include_arrays: bool = True) -> str:
        return timeseries_json(self.sampler.windows, include_arrays)

    def write_exports(self, out_dir: str) -> Dict[str, str]:
        """Write all four exports into ``out_dir``; returns name->path."""
        import os

        os.makedirs(out_dir, exist_ok=True)
        written = {}
        for name, payload in [
            ("trace.json", self.chrome_trace_json()),
            ("metrics.prom", self.prometheus()),
            ("events.jsonl", self.events_jsonl()),
            ("timeseries.json", self.timeseries()),
        ]:
            path = os.path.join(out_dir, name)
            with open(path, "w") as handle:
                handle.write(payload)
            written[name] = path
        return written

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ObservabilityHub({self.total_events()} events, "
                f"{len(self.sampler.windows)} windows"
                f"{', closed' if self.closed else ''})")
