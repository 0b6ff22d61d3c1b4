"""Spans recorded from outside the program.

The benchmark times calls into each layer by wrapping the layer's
public callable for the length of one traced run; nothing under
``src/`` knows it is being measured.  A span is ``(id, parent, name,
start_ns, end_ns, workload)`` plus the process's peak RSS at both ends;
a span's *self* time is its duration minus the time its children
cover, so self times sum to the root's duration exactly.  The layer a
span belongs to is its name up to the last dot
(``service.executor.run`` -> ``service.executor``).
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecorder", "layer_of", "self_times", "layer_self_s"]


class SpanRecorder:
    """Collects spans in memory; written out once, when the run ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "workload": self.workload,
                  "start_rss_kb": _peak_rss_kb(), "end_rss_kb": None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            record["end_rss_kb"] = _peak_rss_kb()
            self._stack.pop()

    @contextmanager
    def wrapping(self, targets: List[Tuple]) -> Iterator[None]:
        """Wrap ``owner.attr`` in a span named ``name`` for the block.

        ``targets`` rows are ``(owner, attribute, span name[, note])``;
        owners are modules or classes, so every call made through the
        public name during the block is recorded and the original is
        restored afterwards whatever happens.  ``note(record, args,
        result)`` may add fields to the span once the call returns.
        """
        originals = [(row[0], row[1], row[0].__dict__[row[1]])
                     for row in targets]
        try:
            for (owner, attr, original), row in zip(originals, targets):
                setattr(owner, attr, self._wrap(original, *row[2:]))
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: str,
              note: Optional[Callable] = None) -> Callable:
        span = self.span

        def traced(*args, **kwargs):
            with span(name) as record:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(record, args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def total_s(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans
                   if s["name"] == name) / 1e9

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def layer_of(span_name: str) -> str:
    return span_name.rpartition(".")[0]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, int]:
    """Span id -> self nanoseconds (duration minus direct children)."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def layer_self_s(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Layer name -> summed self seconds of its spans."""
    own = self_times(spans)
    layers: Dict[str, float] = {}
    for s in spans:
        layer = layer_of(s["name"])
        layers[layer] = layers.get(layer, 0.0) + own[s["id"]] / 1e9
    return layers
