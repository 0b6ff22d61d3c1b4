"""Workload trace recording and replay.

Cleaning results are sensitive to the exact write sequence, so being
able to capture a stream (synthetic or measured) and replay it bit-for-
bit matters for debugging policies and for comparing configurations on
identical inputs.  Traces are plain page-number sequences with a small
text header, so they diff and compress well and can be produced by any
external tool.
"""

from __future__ import annotations

import io
import json
import struct
from typing import BinaryIO, Iterable, List, Optional, TextIO, Union

from .base import WriteWorkload

__all__ = ["TraceWorkload", "TraceRecorder", "TraceError"]

MAGIC = b"eNVyTRC1"
_ENTRY = struct.Struct("<I")

#: Versioned JSONL trace format: a header object on the first line,
#: one ``{"p": page}`` object per reference after it.  The header
#: carries the geometry the trace was recorded under (``num_pages``,
#: ``page_bytes``), the generating ``seed``, and a ``config_digest``
#: fingerprinting the full controller config — the loader refuses to
#: replay a trace against mismatched geometry.
JSONL_FORMAT = "envy-trace"
JSONL_VERSION = 1


class TraceError(Exception):
    """Raised for malformed trace files."""


class TraceRecorder:
    """Captures page references from any workload into a trace."""

    def __init__(self, workload: WriteWorkload) -> None:
        self.workload = workload
        self.pages: List[int] = []

    def next_page(self) -> int:
        page = self.workload.next_page()
        self.pages.append(page)
        return page

    @property
    def num_pages(self) -> int:
        return self.workload.num_pages

    def record(self, count: int) -> List[int]:
        """Draw and capture ``count`` references."""
        for _ in range(count):
            self.next_page()
        return self.pages

    def save(self, target: Union[str, BinaryIO]) -> None:
        trace = TraceWorkload(self.workload.num_pages, self.pages)
        trace.save(target)

    def as_workload(self) -> "TraceWorkload":
        return TraceWorkload(self.workload.num_pages, list(self.pages))


class TraceWorkload(WriteWorkload):
    """Replays a fixed sequence of page references (cycling at the end)."""

    label = "trace"

    def __init__(self, num_pages: int, pages: Iterable[int],
                 cycle: bool = True) -> None:
        super().__init__(num_pages, seed=None)
        self.trace = list(pages)
        if not self.trace:
            raise ValueError("trace must contain at least one reference")
        for page in self.trace:
            if not 0 <= page < num_pages:
                raise ValueError(f"trace page {page} outside "
                                 f"0..{num_pages - 1}")
        self.cycle = cycle
        self._cursor = 0
        #: JSONL header metadata (populated by :meth:`load_jsonl`).
        self.header: dict = {}

    def next_page(self) -> int:
        if self._cursor >= len(self.trace):
            if not self.cycle:
                raise StopIteration("trace exhausted")
            self._cursor = 0
        page = self.trace[self._cursor]
        self._cursor += 1
        return page

    def reset(self) -> None:
        self._cursor = 0

    def __len__(self) -> int:
        return len(self.trace)

    # ------------------------------------------------------------------
    # File format
    # ------------------------------------------------------------------

    def save(self, target: Union[str, BinaryIO]) -> None:
        if isinstance(target, str):
            with open(target, "wb") as handle:
                self._write(handle)
        else:
            self._write(target)

    def _write(self, handle: BinaryIO) -> None:
        handle.write(MAGIC)
        handle.write(self.num_pages.to_bytes(8, "little"))
        handle.write(len(self.trace).to_bytes(8, "little"))
        for page in self.trace:
            handle.write(_ENTRY.pack(page))

    @classmethod
    def load(cls, source: Union[str, BinaryIO],
             cycle: bool = True) -> "TraceWorkload":
        if isinstance(source, str):
            with open(source, "rb") as handle:
                return cls._read(handle, cycle)
        return cls._read(source, cycle)

    @classmethod
    def _read(cls, handle: BinaryIO, cycle: bool) -> "TraceWorkload":
        if handle.read(len(MAGIC)) != MAGIC:
            raise TraceError("not an eNVy trace (bad magic)")
        num_pages = int.from_bytes(handle.read(8), "little")
        count = int.from_bytes(handle.read(8), "little")
        raw = handle.read(count * _ENTRY.size)
        if len(raw) != count * _ENTRY.size:
            raise TraceError("truncated trace")
        pages = [value for (value,) in _ENTRY.iter_unpack(raw)]
        return cls(num_pages, pages, cycle=cycle)

    # ------------------------------------------------------------------
    # Versioned JSONL format
    # ------------------------------------------------------------------

    def save_jsonl(self, target: Union[str, TextIO],
                   page_bytes: Optional[int] = None,
                   seed: Optional[int] = None,
                   config_digest: Optional[str] = None) -> None:
        """Write the trace as versioned JSONL (header + one ref/line)."""
        header = {"format": JSONL_FORMAT, "version": JSONL_VERSION,
                  "num_pages": self.num_pages}
        if page_bytes is not None:
            header["page_bytes"] = int(page_bytes)
        if seed is not None:
            header["seed"] = int(seed)
        if config_digest is not None:
            header["config_digest"] = str(config_digest)
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                self._write_jsonl(handle, header)
        else:
            self._write_jsonl(target, header)

    def _write_jsonl(self, handle: TextIO, header: dict) -> None:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for page in self.trace:
            handle.write('{"p": %d}\n' % page)

    @classmethod
    def load_jsonl(cls, source: Union[str, TextIO], cycle: bool = True,
                   expect_num_pages: Optional[int] = None,
                   expect_page_bytes: Optional[int] = None,
                   expect_config_digest: Optional[str] = None
                   ) -> "TraceWorkload":
        """Load a JSONL trace, validating geometry against the caller.

        ``expect_*`` arguments describe the system the trace is about
        to drive; any mismatch against the recorded header raises
        :class:`TraceError` with a message naming both sides — a trace
        recorded for one geometry silently replayed against another
        would corrupt every downstream comparison.
        """
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                return cls._read_jsonl(handle, cycle, expect_num_pages,
                                       expect_page_bytes,
                                       expect_config_digest,
                                       name=source)
        return cls._read_jsonl(source, cycle, expect_num_pages,
                               expect_page_bytes, expect_config_digest,
                               name="<stream>")

    @classmethod
    def _read_jsonl(cls, handle: TextIO, cycle: bool,
                    expect_num_pages: Optional[int],
                    expect_page_bytes: Optional[int],
                    expect_config_digest: Optional[str],
                    name: str) -> "TraceWorkload":
        first = handle.readline()
        if not first.strip():
            raise TraceError(f"{name}: empty trace file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{name}: malformed header: {exc}") from exc
        if not isinstance(header, dict) or \
                header.get("format") != JSONL_FORMAT:
            raise TraceError(f"{name}: not an eNVy JSONL trace "
                             f"(header {header!r})")
        version = header.get("version")
        if version != JSONL_VERSION:
            raise TraceError(
                f"{name}: trace version {version} not supported "
                f"(expected {JSONL_VERSION})")
        num_pages = header.get("num_pages")
        if not isinstance(num_pages, int) or num_pages <= 0:
            raise TraceError(f"{name}: bad num_pages {num_pages!r}")
        if expect_num_pages is not None and \
                num_pages != expect_num_pages:
            raise TraceError(
                f"{name}: geometry mismatch — trace was recorded for "
                f"{num_pages} logical pages, this system has "
                f"{expect_num_pages}")
        page_bytes = header.get("page_bytes")
        if (expect_page_bytes is not None and page_bytes is not None
                and page_bytes != expect_page_bytes):
            raise TraceError(
                f"{name}: geometry mismatch — trace was recorded with "
                f"{page_bytes}-byte pages, this system uses "
                f"{expect_page_bytes}-byte pages")
        digest = header.get("config_digest")
        if (expect_config_digest is not None and digest is not None
                and digest != expect_config_digest):
            raise TraceError(
                f"{name}: config mismatch — trace was recorded under "
                f"config {digest}, this system is {expect_config_digest}")
        pages: List[int] = []
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                pages.append(record["p"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise TraceError(
                    f"{name}:{lineno}: malformed record "
                    f"{line.strip()!r}: {exc}") from exc
        workload = cls(num_pages, pages, cycle=cycle)
        workload.header = dict(header)
        return workload

    def roundtrip_jsonl(self, **header) -> "TraceWorkload":
        """Save to memory as JSONL and reload (used by tests)."""
        buffer = io.StringIO()
        self.save_jsonl(buffer, **header)
        buffer.seek(0)
        return type(self).load_jsonl(buffer)

    def roundtrip(self) -> "TraceWorkload":
        """Save to memory and reload (used by tests)."""
        buffer = io.BytesIO()
        self.save(buffer)
        buffer.seek(0)
        return type(self).load(buffer)
