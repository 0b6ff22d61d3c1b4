"""Backend (c): a file-backed persistent store that survives restarts.

Every program, invalidate, and erase is written through to a flat image
file, so the array's durable contents — page payloads, out-of-band
self-description stamps, erase counts, bad-block marks — exist outside
the Python process.  Re-opening the file reconstructs the array, and
:func:`~repro.core.recovery.recover_from_flash` over the reopened array
rebuilds the controller exactly as it would over the in-memory one:
the restart-survival property the chaos parity tests pin down.

What is persisted is what real cells hold: payloads, OOB stamps, and
whether a slot was ever programmed.  The VALID/INVALID distinction is
controller bookkeeping (invalidate marks are persisted as a courtesy
for inspection, but recovery re-derives liveness from OOB epochs), and
the SRAM side — page table, write buffer — is deliberately absent, so
a reopened image *must* go through the recovery scan, exactly like
powering on a real device.

File layout (little-endian, version 1)::

    header   magic "eNVyFSB1", u32 version, u32 num_segments,
             u32 pages_per_segment, u32 page_bytes, u32 oob_bytes
    segment  u64 erase_count, u8 is_bad, 7 pad bytes, then per page:
             u8 state (0 erased / 1 programmed / 2 invalidated),
             u8 has_data, u8 has_oob, 5 pad bytes,
             page_bytes payload, oob_bytes spare area

Writes go through a buffered handle flushed after every mutating
operation (op-granularity durability: a chaos kill raises *before* the
interrupted operation mutates the array, so the file never holds a
half-applied operation the in-memory model doesn't).
"""

from __future__ import annotations

import os
import struct
from typing import Optional, Tuple

from ..flash.array import FlashArray
from ..flash.errors import BadBlockError
from ..flash.oob import OOB_BYTES
from ..flash.segment import PageState
from .registry import RegistryError, register_backend

__all__ = ["FileBackend", "FileStoreError", "make_file_backend"]

MAGIC = b"eNVyFSB1"
VERSION = 1
_HEADER = struct.Struct("<8s5I")
_SEG_HEADER = struct.Struct("<QB7x")
_SLOT_HEADER = struct.Struct("<BBB5x")


class FileStoreError(Exception):
    """Raised for malformed or geometry-mismatched image files."""


class FileBackend(FlashArray):
    """FlashArray whose durable state is written through to a file."""

    backend_name = "file"

    def __init__(self, params=None, page_bytes: int = 256,
                 store_data: bool = True, spare_segments: int = 0,
                 path: Optional[str] = None, create: bool = True,
                 fsync: bool = False) -> None:
        if path is None:
            raise ValueError("file backend needs path=<image file>")
        super().__init__(params, page_bytes, store_data=store_data,
                         spare_segments=spare_segments)
        self.path = str(path)
        self.fsync = bool(fsync)
        self._spare_segments = spare_segments
        self.media_writes = 0
        self.media_bytes_written = 0
        self._slot_size = _SLOT_HEADER.size + page_bytes + OOB_BYTES
        self._seg_size = (_SEG_HEADER.size
                          + self.pages_per_segment * self._slot_size)
        self._image_size = _HEADER.size + self.num_segments * self._seg_size
        if create:
            self._fh = open(self.path, "w+b")
            self._format_file()
        else:
            self._fh = open(self.path, "r+b")
            self._load_file()

    # ------------------------------------------------------------------
    # Image layout
    # ------------------------------------------------------------------

    def _seg_offset(self, segment: int) -> int:
        return _HEADER.size + segment * self._seg_size

    def _slot_offset(self, segment: int, page: int) -> int:
        return (self._seg_offset(segment) + _SEG_HEADER.size
                + page * self._slot_size)

    def _write_at(self, offset: int, payload: bytes) -> None:
        self._fh.seek(offset)
        self._fh.write(payload)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self.media_writes += 1
        self.media_bytes_written += len(payload)

    def _slot_record(self, segment: int, page: int) -> bytes:
        seg = self.segments[segment]
        state = int(seg.states[page])
        data = seg.data[page] if (self.store_data and seg.data) else None
        oob = seg.oob[page]
        return (_SLOT_HEADER.pack(state, int(data is not None),
                                  int(oob is not None))
                + (data if data is not None else bytes(self.page_bytes))
                + (oob if oob is not None else bytes(OOB_BYTES)))

    def _seg_header(self, segment: int) -> bytes:
        seg = self.segments[segment]
        return _SEG_HEADER.pack(seg.erase_count, int(seg.is_bad))

    def _format_file(self) -> None:
        """Write the whole (erased) image in one pass."""
        self._fh.seek(0)
        self._fh.truncate()
        image = bytearray()
        image += _HEADER.pack(MAGIC, VERSION, self.num_segments,
                              self.pages_per_segment, self.page_bytes,
                              OOB_BYTES)
        erased_slot = (_SLOT_HEADER.pack(0, 0, 0)
                       + bytes(self.page_bytes) + bytes(OOB_BYTES))
        for segment in range(self.num_segments):
            image += self._seg_header(segment)
            image += erased_slot * self.pages_per_segment
        self._write_at(0, bytes(image))

    def _load_file(self) -> None:
        """Rebuild the in-memory segments from an existing image."""
        self._fh.seek(0)
        raw = self._fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise FileStoreError(f"{self.path}: truncated header")
        magic, version, n_seg, n_pages, p_bytes, o_bytes = \
            _HEADER.unpack(raw)
        if magic != MAGIC:
            raise FileStoreError(f"{self.path}: not an eNVy image "
                                 f"(bad magic {magic!r})")
        if version != VERSION:
            raise FileStoreError(
                f"{self.path}: image version {version} not supported "
                f"(expected {VERSION})")
        if (n_seg, n_pages, p_bytes) != (self.num_segments,
                                         self.pages_per_segment,
                                         self.page_bytes):
            raise FileStoreError(
                f"{self.path}: geometry mismatch — image has {n_seg} "
                f"segments x {n_pages} pages x {p_bytes} B, config "
                f"expects {self.num_segments} x "
                f"{self.pages_per_segment} x {self.page_bytes} B")
        if o_bytes != OOB_BYTES:
            raise FileStoreError(
                f"{self.path}: OOB size mismatch ({o_bytes} != "
                f"{OOB_BYTES})")
        size = self._fh.seek(0, os.SEEK_END)
        if size != self._image_size:
            raise FileStoreError(f"{self.path}: image is {size} bytes, its "
                                 f"geometry needs {self._image_size}")
        for segment in range(self.num_segments):
            seg = self.segments[segment]
            self._fh.seek(self._seg_offset(segment))
            erase_count, is_bad = _SEG_HEADER.unpack(
                self._fh.read(_SEG_HEADER.size))
            seg.erase_count = erase_count
            seg.is_bad = bool(is_bad)
            write_pointer = 0
            for page in range(self.pages_per_segment):
                state, has_data, has_oob = _SLOT_HEADER.unpack(
                    self._fh.read(_SLOT_HEADER.size))
                payload = self._fh.read(self.page_bytes)
                oob = self._fh.read(OOB_BYTES)
                if state == int(PageState.ERASED):
                    continue
                if state > int(PageState.INVALID):
                    raise FileStoreError(
                        f"{self.path}: segment {segment} page {page} has "
                        f"unknown slot state {state}")
                seg.states[page] = PageState(state)
                if self.store_data and has_data:
                    seg.data[page] = bytes(payload)
                if has_oob:
                    seg.oob[page] = bytes(oob)
                seg.program_count += 1
                write_pointer = page + 1
            seg.write_pointer = write_pointer
            seg.rebuild_live_slots()
            seg.live_count = len(seg.live_slots)

    def reopen(self) -> "FileBackend":
        """A fresh backend rebuilt from the image file on disk.

        Models a process restart: only the file survives.  The caller
        should feed the result to :func:`~repro.core.recovery.
        recover_from_flash` — the SRAM side is gone.
        """
        self._fh.flush()
        return FileBackend(self.params, self.page_bytes,
                           store_data=self.store_data,
                           spare_segments=self._spare_segments,
                           path=self.path, create=False,
                           fsync=self.fsync)

    def close(self) -> None:
        self._fh.close()

    # ------------------------------------------------------------------
    # Write-through operations
    # ------------------------------------------------------------------

    def program_page(self, segment: int, data: Optional[bytes] = None,
                     oob: Optional[bytes] = None) -> Tuple[int, int]:
        page, ns = super().program_page(segment, data, oob)
        self._write_at(self._slot_offset(segment, page),
                       self._slot_record(segment, page))
        return page, ns

    def invalidate_page(self, segment: int, page: int) -> None:
        super().invalidate_page(segment, page)
        self._write_at(self._slot_offset(segment, page),
                       self._slot_record(segment, page))

    def erase_segment(self, segment: int) -> int:
        try:
            ns = super().erase_segment(segment)
        except BadBlockError:
            # The grown-bad mark is durable state: persist it so a
            # reopened image knows the segment is retired.
            self._write_at(self._seg_offset(segment),
                           self._seg_header(segment))
            raise
        erased_slot = (_SLOT_HEADER.pack(0, 0, 0)
                       + bytes(self.page_bytes) + bytes(OOB_BYTES))
        self._write_at(self._seg_offset(segment),
                       self._seg_header(segment)
                       + erased_slot * self.pages_per_segment)
        return ns

    # ------------------------------------------------------------------

    def media_report(self) -> dict:
        return {
            "medium": "file",
            "path": self.path,
            "image_bytes": self._image_size,
            "media_writes": self.media_writes,
            "media_bytes_written": self.media_bytes_written,
            "fsync": self.fsync,
        }


@register_backend(
    "file",
    summary="file-backed persistent store (survives process restarts; "
            "reopen + recovery scan rebuilds the controller)",
    options="path=<image file> (required), fsync=<bool>")
def make_file_backend(config, store_data, spare_segments,
                      path=None, fsync=False):
    if path in (None, ""):
        raise RegistryError("file backend needs path=<image file>")
    return FileBackend(config.flash, config.page_bytes,
                       store_data=store_data,
                       spare_segments=spare_segments,
                       path=path, fsync=fsync)
