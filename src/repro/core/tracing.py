"""The one host-access record: capture it, keep it, replay it anywhere.

A *run trace* is the host-level operation stream — every write with its
payload, every read, each with the nanoseconds it took — plus a header
fingerprinting the geometry it was recorded under.  It is recorded by
subscribing a :class:`RunTrace` to the controller's
``access_listeners`` (:meth:`RunTrace.recording`); nothing wraps the
controller.  :meth:`RunTrace.page_writes` is the page-level write
stream the policy simulator replays (``trace:path=`` in the workload
registry); :mod:`repro.backends.trace` replays the whole trace on any
backend.

Trace format (JSONL, version 2; version 1 had neither ``c`` nor ``ns``
and still loads)::

    {"format": "envy-run-trace", "version": 2, "page_bytes": 256,
     "seed": 0, "config_digest": "9f2c..."}
    {"op": "w", "a": 4096, "d": "0100000000000000", "ns": 360}
    {"op": "r", "a": 4096, "n": 8, "ns": 160}
    {"op": "r", "a": 8192, "n": 8, "c": 12, "ns": 160}

``n`` is the byte length of one read, ``c`` (default 1) how many times
it was issued back to back — a run of same-page reads is one row, not
``c`` rows — and ``ns`` (optional) what each of them cost.  The
``config_digest`` hashes the full controller config *except* the
``backend`` field — a trace is a property of the logical system, and
pinning the substrate into it would defeat cross-backend replay.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import contextmanager
from dataclasses import asdict
from typing import Iterator, List, Optional, TextIO, Union

from ..faults.plan import FaultEvent
from .config import EnvyConfig

__all__ = ["RunTrace", "TraceError", "config_digest"]

TRACE_FORMAT = "envy-run-trace"
TRACE_VERSION = 2


class TraceError(Exception):
    """A malformed, mismatched or exhausted trace."""


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


def _int_field(value, key: str, minimum: int) -> int:
    """``value`` if it is a plain int (no bool, no float) >= ``minimum``."""
    if value.__class__ is not int or value < minimum:
        raise ValueError(f"{key!r} must be an integer >= {minimum}, "
                         f"not {value!r}")
    return value


class RunTrace:
    """An ordered host-operation stream with a geometry header."""

    def __init__(self, page_bytes: int, seed: Optional[int] = None,
                 config_digest: Optional[str] = None,
                 ops: Optional[List[tuple]] = None) -> None:
        self.page_bytes = int(page_bytes)
        self.seed = seed
        self.config_digest = config_digest
        #: ``(op, address, payload, ns, count)`` rows, the call shape of
        #: ``EnvyController.access_listeners``: ``payload`` is the bytes
        #: of a ``"w"`` and the length of an ``"r"``; ``ns`` is None in
        #: a row loaded from a version 1 file.
        self.ops: List[tuple] = ops if ops is not None else []
        #: Device fault events observed while recording — ECC
        #: corrections, retries, retirements, checkpoint failures.
        self.faults: List[FaultEvent] = []

    @classmethod
    def of(cls, controller, seed: Optional[int] = None) -> "RunTrace":
        """An empty trace with ``controller``'s geometry in its header."""
        return cls(controller.config.page_bytes, seed=seed,
                   config_digest=config_digest(controller.config))

    def record(self, op: str, address: int, payload,
               ns: Optional[int] = None, count: int = 1) -> None:
        """Append one row (this is the access listener)."""
        self.ops.append((op, address, payload, ns, count))

    @contextmanager
    def recording(self, controller) -> Iterator["RunTrace"]:
        """Subscribe to ``controller`` for the length of a ``with`` block.

        Host accesses arrive through ``access_listeners``, typed fault
        events through the array's ``fault_listeners`` (the bus stays
        dormant, so a recorded run is priced exactly as an unrecorded
        one).  Leave the block to pause, enter another to resume.

        Only completed host calls are recorded: the listeners fire on
        return, so a write that raises (power cut, read-only array) is
        not in the trace.  Recovery clears the array's fault listeners;
        leaving the block afterwards is not an error.
        """
        subscriptions = ((controller.access_listeners, self.record),
                         (controller.array.fault_listeners,
                          self.faults.append))
        for listeners, listener in subscriptions:
            listeners.append(listener)
        try:
            yield self
        finally:
            for listeners, listener in subscriptions:
                if listener in listeners:
                    listeners.remove(listener)

    def drive(self, controller) -> int:
        """Issue every row against ``controller``; returns the total ns.

        A row's recorded ``ns`` is not consulted.  Driven on the state
        it was recorded from, under a second recorder, a trace
        reproduces itself row for row, ``ns`` included.
        """
        total_ns = 0
        for op, address, payload, _, count in self.ops:
            if op == "w":
                total_ns += controller.write(address, payload)
            elif count == 1:
                total_ns += controller.read_timed(address, payload)[1]
            else:
                first_ns, repeat_ns = controller.read_run_ns(
                    address // self.page_bytes, count)
                total_ns += first_ns + repeat_ns * (count - 1)
        return total_ns

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def writes(self) -> int:
        return sum(1 for row in self.ops if row[0] == "w")

    @property
    def reads(self) -> int:
        """Host reads: a run of ``count`` counts ``count`` times."""
        return sum(row[4] for row in self.ops if row[0] == "r")

    def __len__(self) -> int:
        return len(self.ops)

    def _pages(self, row: tuple) -> range:
        """The logical pages one access of ``row`` touches."""
        address, payload = row[1], row[2]
        length = payload if row[0] == "r" else len(payload)
        return range(address // self.page_bytes,
                     (address + max(0, length - 1)) // self.page_bytes + 1)

    def page_writes(self) -> List[int]:
        """The write stream at page granularity, in order: what
        :class:`~repro.workloads.trace.TraceWorkload` replays through
        the policy simulator."""
        return [page for row in self.ops if row[0] == "w"
                for page in self._pages(row)]

    def total_ns(self) -> int:
        """Access time over every timed row."""
        return sum(row[3] * row[4] for row in self.ops
                   if row[3] is not None)

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
        for op, address, payload, ns, count in self.ops:
            if op == "w":
                row = '{"op": "w", "a": %d, "d": "%s"' % (address,
                                                           payload.hex())
            else:
                row = '{"op": "r", "a": %d, "n": %d' % (address, payload)
                if count != 1:
                    row += ', "c": %d' % count
            if ns is not None:
                row += ', "ns": %d' % ns
            handle.write(row + "}\n")

    @classmethod
    def load(cls, source: Union[str, TextIO]) -> "RunTrace":
        """Read a trace back; anything malformed is a :class:`TraceError`
        (the file is outside input: nothing in it is trusted)."""
        if isinstance(source, str):
            # Undecodable bytes become U+FFFD and fail as malformed JSON.
            with open(source, "r", encoding="utf-8",
                      errors="replace") as handle:
                return cls._read(handle, name=source)
        return cls._read(source, name="<stream>")

    @classmethod
    def _read(cls, handle: TextIO, name: str) -> "RunTrace":
        first = handle.readline()
        if not first.strip():
            raise TraceError(f"{name}: empty run trace")
        try:
            header = json.loads(first)
        except (ValueError, RecursionError) as exc:
            raise TraceError(f"{name}: malformed header: {exc}") from exc
        if not isinstance(header, dict) or \
                header.get("format") != TRACE_FORMAT:
            raise TraceError(f"{name}: not an eNVy run trace "
                             f"(header {header!r})")
        if header.get("version") not in (1, TRACE_VERSION):
            raise TraceError(
                f"{name}: run-trace version {header.get('version')!r} "
                f"not supported (expected 1 or {TRACE_VERSION})")
        page_bytes = header.get("page_bytes")
        if page_bytes.__class__ is not int or page_bytes <= 0:
            raise TraceError(f"{name}: bad page_bytes {page_bytes!r}")
        trace = cls(page_bytes, seed=header.get("seed"),
                    config_digest=header.get("config_digest"))
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                trace.ops.append(cls._row(json.loads(line), page_bytes))
            except (KeyError, TypeError, ValueError,
                    RecursionError) as exc:
                raise TraceError(
                    f"{name}:{lineno}: malformed record "
                    f"{line.strip()!r}: {exc}") from exc
        return trace

    @staticmethod
    def _row(record, page_bytes: int) -> tuple:
        """One validated ``ops`` row from a decoded JSON line."""
        if not isinstance(record, dict):
            raise TypeError("a record is a JSON object")
        op = record.get("op")
        address = _int_field(record["a"], "a", 0)
        ns = record.get("ns")
        if ns is not None:
            _int_field(ns, "ns", 0)
        if op == "w":
            return ("w", address, bytes.fromhex(record["d"]), ns, 1)
        if op != "r":
            raise ValueError(f"unknown op {op!r}")
        length = _int_field(record["n"], "n", 0)
        count = _int_field(record.get("c", 1), "c", 1)
        if count > 1 and not 0 < length <= page_bytes - address % page_bytes:
            raise ValueError("a run of reads stays inside one page")
        return ("r", address, length, ns, count)

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
        extent = max((row[1] + (row[2] if row[0] == "r" else len(row[2]))
                      for row in self.ops), default=0)
        if extent > config.logical_bytes:
            raise TraceError(
                f"{name}: geometry mismatch — the trace reaches byte "
                f"{extent}, this config's array ends at "
                f"{config.logical_bytes}")
