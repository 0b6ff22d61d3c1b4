"""Record host-level runs to versioned JSONL and replay them anywhere.

The backend boundary makes "same input" testable: a *run trace* is the
full host-level operation stream — every write with its payload, every
read — plus a header fingerprinting the geometry it was recorded
under.  Replaying the same trace against the same config on a
different backend must produce the same logical page state, because
nothing below the backend boundary is allowed to influence placement.
:func:`state_digest` reduces that state to one hash, and
:mod:`repro.backends.consistency` turns the equality into a gate.

Trace format (JSONL, version 1)::

    {"format": "envy-run-trace", "version": 1, "page_bytes": 256,
     "seed": 0, "config_digest": "9f2c..."}
    {"op": "w", "a": 4096, "d": "0100000000000000"}
    {"op": "r", "a": 4096, "n": 8}

The ``config_digest`` hashes the full controller config *except* the
``backend`` field — a trace is a property of the logical system, and
pinning the substrate into it would defeat cross-backend replay.

This builds on the lower layers rather than replacing them:
:class:`~repro.workloads.trace.TraceWorkload` (page-reference traces)
feeds :func:`record_workload`, and
:class:`~repro.core.tracing.AccessTrace` remains the address-level
summary view; the run trace adds what neither carries — write payloads.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional, TextIO, Tuple, Union

from ..core.config import EnvyConfig
from ..workloads.trace import TraceError
from .registry import create_workload

__all__ = ["RunTrace", "RunRecorder", "ReplayResult", "config_digest",
           "state_digest", "record_tpca", "record_workload",
           "replay_trace"]

TRACE_FORMAT = "envy-run-trace"
TRACE_VERSION = 1

#: Bytes per TPC-A balance update (matches the chaos harness).
_WORD = 8


def config_digest(config: EnvyConfig) -> str:
    """A short stable fingerprint of a controller configuration.

    Hashes every config field *except* ``backend``: two configs that
    differ only in substrate are the same logical system, so their
    traces interchange.
    """
    payload = asdict(config)
    payload.pop("backend", None)
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def state_digest(controller) -> str:
    """SHA-256 over every logical page's bytes, in page order.

    Reads bypass the fault-injection path (the digest captures what the
    cells hold, not what an armed injector shows), so it is stable
    across backends and across reruns.  Call after ``drain()`` for a
    buffered controller — SRAM-resident pages are not part of the
    Flash-side state.
    """
    from ..core.chaos import recovered_page_bytes

    digest = hashlib.sha256()
    for page in range(controller.config.logical_pages):
        digest.update(recovered_page_bytes(controller, page))
    return digest.hexdigest()


def _page_payload(page: int, seq: int, page_bytes: int) -> bytes:
    """Deterministic, page- and sequence-unique full-page payload."""
    stamp = page.to_bytes(4, "little") + seq.to_bytes(4, "little")
    repeats = (page_bytes + len(stamp) - 1) // len(stamp)
    return (stamp * repeats)[:page_bytes]


class RunTrace:
    """An ordered host-operation stream with a geometry header."""

    def __init__(self, page_bytes: int, seed: Optional[int] = None,
                 config_digest: Optional[str] = None,
                 ops: Optional[List[tuple]] = None) -> None:
        self.page_bytes = int(page_bytes)
        self.seed = seed
        self.config_digest = config_digest
        #: ("w", address, payload bytes) or ("r", address, length).
        self.ops: List[tuple] = ops if ops is not None else []

    def record_write(self, address: int, data: bytes) -> None:
        self.ops.append(("w", address, bytes(data)))

    def record_read(self, address: int, length: int) -> None:
        self.ops.append(("r", address, length))

    @property
    def writes(self) -> int:
        return sum(1 for op in self.ops if op[0] == "w")

    @property
    def reads(self) -> int:
        return sum(1 for op in self.ops if op[0] == "r")

    def __len__(self) -> int:
        return len(self.ops)

    # ------------------------------------------------------------------
    # JSONL round-trip
    # ------------------------------------------------------------------

    def save(self, target: Union[str, TextIO]) -> None:
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                self._write(handle)
        else:
            self._write(target)

    def _write(self, handle: TextIO) -> None:
        header = {"format": TRACE_FORMAT, "version": TRACE_VERSION,
                  "page_bytes": self.page_bytes}
        if self.seed is not None:
            header["seed"] = self.seed
        if self.config_digest is not None:
            header["config_digest"] = self.config_digest
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for op in self.ops:
            if op[0] == "w":
                handle.write('{"op": "w", "a": %d, "d": "%s"}\n'
                             % (op[1], op[2].hex()))
            else:
                handle.write('{"op": "r", "a": %d, "n": %d}\n'
                             % (op[1], op[2]))

    @classmethod
    def load(cls, source: Union[str, TextIO]) -> "RunTrace":
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                return cls._read(handle, name=source)
        return cls._read(source, name="<stream>")

    @classmethod
    def _read(cls, handle: TextIO, name: str) -> "RunTrace":
        first = handle.readline()
        if not first.strip():
            raise TraceError(f"{name}: empty run trace")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{name}: malformed header: {exc}") from exc
        if not isinstance(header, dict) or \
                header.get("format") != TRACE_FORMAT:
            raise TraceError(f"{name}: not an eNVy run trace "
                             f"(header {header!r})")
        if header.get("version") != TRACE_VERSION:
            raise TraceError(
                f"{name}: run-trace version {header.get('version')} "
                f"not supported (expected {TRACE_VERSION})")
        page_bytes = header.get("page_bytes")
        if not isinstance(page_bytes, int) or page_bytes <= 0:
            raise TraceError(f"{name}: bad page_bytes {page_bytes!r}")
        trace = cls(page_bytes, seed=header.get("seed"),
                    config_digest=header.get("config_digest"))
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                op = record["op"]
                if op == "w":
                    trace.record_write(record["a"],
                                       bytes.fromhex(record["d"]))
                elif op == "r":
                    trace.record_read(record["a"], record["n"])
                else:
                    raise KeyError(f"unknown op {op!r}")
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                raise TraceError(
                    f"{name}:{lineno}: malformed record "
                    f"{line.strip()!r}: {exc}") from exc
        return trace

    def roundtrip(self) -> "RunTrace":
        """Save to memory and reload (used by tests)."""
        buffer = io.StringIO()
        self.save(buffer)
        buffer.seek(0)
        return type(self).load(buffer)

    def validate_for(self, config: EnvyConfig, name: str = "trace") -> None:
        """Refuse to drive a system the trace was not recorded for."""
        if self.page_bytes != config.page_bytes:
            raise TraceError(
                f"{name}: geometry mismatch — recorded with "
                f"{self.page_bytes}-byte pages, this config uses "
                f"{config.page_bytes}-byte pages")
        expected = config_digest(config)
        if self.config_digest is not None and \
                self.config_digest != expected:
            raise TraceError(
                f"{name}: config mismatch — recorded under config "
                f"{self.config_digest}, this config is {expected} "
                f"(the backend field is excluded, so this is a real "
                f"logical-geometry difference)")


class RunRecorder:
    """Forwards host operations to a controller, capturing each one.

    A thin proxy in the :class:`~repro.core.tracing.TracingController`
    style, but payload-preserving: the recorded trace can re-drive any
    backend bit-for-bit.  Attribute access falls through to the wrapped
    controller.
    """

    def __init__(self, controller, seed: Optional[int] = None,
                 trace: Optional[RunTrace] = None) -> None:
        self.controller = controller
        self.trace = trace if trace is not None else RunTrace(
            controller.config.page_bytes, seed=seed,
            config_digest=config_digest(controller.config))

    def write(self, address: int, data: bytes) -> int:
        self.trace.record_write(address, data)
        return self.controller.write(address, data)

    def read(self, address: int, length: int) -> bytes:
        self.trace.record_read(address, length)
        return self.controller.read(address, length)

    def read_timed(self, address: int, length: int) -> Tuple[bytes, int]:
        self.trace.record_read(address, length)
        return self.controller.read_timed(address, length)

    # Page-granular reads (the replay drivers' entry points) carry no
    # address: each is recorded as one word at the start of its page.

    def read_page_ns(self, page: int) -> int:
        self.trace.record_read(page * self.trace.page_bytes, _WORD)
        return self.controller.read_page_ns(page)

    def read_run_ns(self, page: int, count: int) -> Tuple[int, int]:
        address = page * self.trace.page_bytes
        for _ in range(count):
            self.trace.record_read(address, _WORD)
        return self.controller.read_run_ns(page, count)

    def __getattr__(self, name):
        return getattr(self.controller, name)


@dataclass
class ReplayResult:
    """Outcome of replaying one trace against one backend/config."""

    backend: str
    digest: str
    total_ns: int
    ops: int
    writes: int
    reads: int
    health: dict = field(default_factory=dict)
    controller: object = None

    def summary(self) -> dict:
        """JSON-safe view (drops the live controller)."""
        return {"backend": self.backend, "digest": self.digest,
                "total_ns": self.total_ns, "ops": self.ops,
                "writes": self.writes, "reads": self.reads}


def replay_trace(trace: RunTrace, config: EnvyConfig, policy=None,
                 check_config: bool = True,
                 keep_controller: bool = False) -> ReplayResult:
    """Drive ``config``'s backend with every operation of ``trace``.

    Drains the write buffer at the end so the digest covers the full
    Flash-side state.  ``check_config=False`` skips the header
    validation (for exploratory replays against deliberately different
    configs — the digest then means nothing across runs).
    """
    from ..core.controller import EnvyController

    if check_config:
        trace.validate_for(config)
    ctrl = EnvyController(config, policy)
    total_ns = 0
    for op in trace.ops:
        if op[0] == "w":
            total_ns += ctrl.write(op[1], op[2])
        else:
            _, ns = ctrl.read_timed(op[1], op[2])
            total_ns += ns
    ctrl.drain()
    return ReplayResult(
        backend=config.backend or "flash",
        digest=state_digest(ctrl),
        total_ns=total_ns,
        ops=len(trace.ops),
        writes=trace.writes,
        reads=trace.reads,
        health=ctrl.health_report(),
        controller=ctrl if keep_controller else None)


def record_tpca(config: EnvyConfig, transactions: int = 40,
                seed: int = 0, policy=None
                ) -> Tuple[RunTrace, "ReplayResult"]:
    """Record a seeded TPC-A run (the chaos harness's workload).

    Returns the trace plus the recording run's own
    :class:`ReplayResult`, so the recorder doubles as the reference
    point for cross-backend comparison.
    """
    from ..core.controller import EnvyController
    from ..db.layout import TpcaLayout
    from ..workloads.tpca import TpcaWorkload

    ctrl = EnvyController(config, policy)
    recorder = RunRecorder(ctrl, seed=seed)
    layout = TpcaLayout.sized_for(config.logical_bytes)
    workload = TpcaWorkload(layout, rate_tps=100.0, seed=seed)
    stamp = 0
    for txn in workload.transactions(transactions):
        for is_write, address in workload.accesses(txn):
            address = min(address, ctrl.size_bytes - _WORD)
            if is_write:
                stamp += 1
                recorder.write(address, stamp.to_bytes(_WORD, "little"))
            else:
                recorder.read(address, _WORD)
    ctrl.drain()
    trace = recorder.trace
    reference = ReplayResult(
        backend=config.backend or "flash",
        digest=state_digest(ctrl), total_ns=0, ops=len(trace.ops),
        writes=trace.writes, reads=trace.reads,
        health=ctrl.health_report())
    return trace, reference


def record_workload(config: EnvyConfig, workload_spec: str,
                    writes: int, seed: int = 0, policy=None
                    ) -> Tuple[RunTrace, "ReplayResult"]:
    """Record ``writes`` full-page writes from a registry workload.

    The workload names pages; payloads are deterministic functions of
    (page, sequence), so the recorded trace fully determines the final
    state.
    """
    from ..core.controller import EnvyController

    ctrl = EnvyController(config, policy)
    workload = create_workload(workload_spec, config.logical_pages,
                               seed=seed)
    recorder = RunRecorder(ctrl, seed=seed)
    page_bytes = config.page_bytes
    for seq in range(writes):
        page = workload.next_page()
        recorder.write(page * page_bytes,
                       _page_payload(page, seq, page_bytes))
    ctrl.drain()
    trace = recorder.trace
    reference = ReplayResult(
        backend=config.backend or "flash",
        digest=state_digest(ctrl), total_ns=0, ops=len(trace.ops),
        writes=trace.writes, reads=trace.reads,
        health=ctrl.health_report())
    return trace, reference
