"""Host-access tracing for the controller.

Wraps an :class:`~repro.core.controller.EnvyController` so every host
read and write is recorded as ``(op, address, length, nanoseconds)``.
Traces serve three purposes:

* debugging — see exactly what an application does to storage;
* analysis — derive page-level write traces for the policy simulator
  (via :meth:`AccessTrace.page_writes`), closing the loop between a real
  application run and the Section 4 cleaning experiments;
* verification — the TPC-A trace-generator tests use the same mechanism
  to prove the synthetic access stream matches the real database's.

The tracer is a transparent proxy: reads and writes behave identically,
and every other attribute passes through to the wrapped controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from ..faults.plan import FaultEvent
from ..obs.events import FAULT_PREFIX

__all__ = ["AccessRecord", "AccessTrace", "TracingController"]

#: Bytes of the host word a page-granular read stands for.
_WORD = 8


@dataclass(frozen=True)
class AccessRecord:
    """One host access: 'r' or 'w', byte address, length, latency."""

    op: str
    address: int
    length: int
    ns: int


class AccessTrace:
    """The recorded access stream plus derived views."""

    def __init__(self, page_bytes: int) -> None:
        self.page_bytes = page_bytes
        self.records: List[AccessRecord] = []
        #: Device fault events observed while tracing — ECC corrections,
        #: retries, retirements, checkpoint failures
        #: (``checkpoint_disabled``, ``checkpoint_erase_failed``) —
        #: interleaved with the host accesses that triggered them.
        self.faults: List[FaultEvent] = []

    def append(self, op: str, address: int, length: int,
               ns: int) -> None:
        self.records.append(AccessRecord(op, address, length, ns))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[AccessRecord]:
        return iter(self.records)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def reads(self) -> List[AccessRecord]:
        return [record for record in self.records if record.op == "r"]

    def writes(self) -> List[AccessRecord]:
        return [record for record in self.records if record.op == "w"]

    def pages_touched(self) -> set:
        touched = set()
        for record in self.records:
            first = record.address // self.page_bytes
            last = (record.address + max(0, record.length - 1)) \
                // self.page_bytes
            touched.update(range(first, last + 1))
        return touched

    def page_writes(self) -> List[int]:
        """The write stream at page granularity, in order.

        Feed this to :class:`~repro.workloads.trace.TraceWorkload` to
        replay a real application's write pattern through the policy
        simulator.
        """
        pages = []
        for record in self.writes():
            first = record.address // self.page_bytes
            last = (record.address + max(0, record.length - 1)) \
                // self.page_bytes
            pages.extend(range(first, last + 1))
        return pages

    def total_ns(self) -> int:
        return sum(record.ns for record in self.records)

    def fault_counts(self) -> dict:
        """Fault events by kind (empty when no faults were observed)."""
        counts: dict = {}
        for event in self.faults:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def summary(self) -> str:
        reads = self.reads()
        writes = self.writes()
        text = (f"{len(reads)} reads + {len(writes)} writes over "
                f"{len(self.pages_touched())} pages, "
                f"{self.total_ns():,} ns of access time")
        if self.faults:
            parts = ", ".join(f"{kind} x{n}" for kind, n
                              in sorted(self.fault_counts().items()))
            text += f"; faults: {parts}"
        return text


class TracingController:
    """Transparent tracing proxy around a controller."""

    def __init__(self, controller,
                 on_access: Optional[Callable] = None) -> None:
        self._controller = controller
        self.trace = AccessTrace(controller.config.page_bytes)
        self._on_access = on_access
        self.enabled = True
        # Record device fault events (ECC corrections, retries, bad
        # blocks) alongside the accesses that triggered them.  They
        # arrive over the controller's event bus as ``fault.*`` marks —
        # the same channel every other observer uses.
        controller.events.subscribe(self._record_fault_event,
                                    prefix=FAULT_PREFIX)

    def _record_fault_event(self, event) -> None:
        """Rebuild the typed FaultEvent from a ``fault.*`` bus mark."""
        if self.enabled:
            data = event.data or {}
            self.trace.faults.append(FaultEvent(
                event.kind[len(FAULT_PREFIX):],
                int(data.get("segment", -1)),
                int(data.get("op_index", 0)),
                str(data.get("detail", ""))))

    # ------------------------------------------------------------------

    def _record(self, op: str, address: int, length: int, ns: int) -> None:
        if self.enabled:
            self.trace.append(op, address, length, ns)
            if self._on_access is not None:
                self._on_access(op, address, length, ns)

    def read(self, address: int, length: int) -> bytes:
        data, _ = self.read_timed(address, length)
        return data

    def read_timed(self, address: int, length: int) -> Tuple[bytes, int]:
        data, ns = self._controller.read_timed(address, length)
        self._record("r", address, length, ns)
        return data, ns

    # The page-granular entry points the replay drivers use carry no
    # address or length: each read is recorded as one word at the start
    # of its page, so the trace keeps one row per host access.

    def read_page_ns(self, page: int) -> int:
        ns = self._controller.read_page_ns(page)
        self._record("r", page * self.trace.page_bytes, _WORD, ns)
        return ns

    def read_run_ns(self, page: int, count: int) -> Tuple[int, int]:
        first_ns, repeat_ns = self._controller.read_run_ns(page, count)
        address = page * self.trace.page_bytes
        self._record("r", address, _WORD, first_ns)
        for _ in range(count - 1):
            self._record("r", address, _WORD, repeat_ns)
        return first_ns, repeat_ns

    def write(self, address: int, data: bytes) -> int:
        ns = self._controller.write(address, data)
        self._record("w", address, len(data), ns)
        return ns

    # ------------------------------------------------------------------

    def pause(self) -> None:
        """Stop recording (pass-through continues)."""
        self.enabled = False

    def resume(self) -> None:
        self.enabled = True

    def reset(self) -> None:
        self.trace = AccessTrace(self._controller.config.page_bytes)

    def __getattr__(self, name: str):
        # Everything else (metrics, buffer, drain, view, ...) passes
        # through to the wrapped controller.
        return getattr(self._controller, name)
