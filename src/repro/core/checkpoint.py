"""Flash-resident page-table checkpoints (crash-consistent metadata).

The paper keeps every piece of mapping state in battery-backed SRAM and
never writes it to Flash.  That makes recovery instant while the battery
holds — and total when it does not.  This module adds the production
counterpart: a periodic *checkpoint* of the controller's SRAM metadata,
written to dedicated metadata segments through the normal program path,
so that :func:`repro.core.recovery.recover_from_flash` can rebuild the
system from Flash alone and only roll forward the small tail of
programs issued after the last checkpoint.

Contents and format
-------------------

A checkpoint is :func:`capture`'s record, as zlib-compressed JSON
(:func:`encode_state`; snapshots use the same record and encoding):

* the write-epoch and program-sequence counters,
* per-physical-segment slot records, one column per OOB field (kind 0
  for an unparseable OOB) — exactly the information stamped in each
  page's OOB region, cached so recovery does not have to re-read pages
  programmed before the checkpoint,
* each segment's erase count and write pointer at capture time (the
  roll-forward bounds: a segment whose erase count changed is rescanned
  in full, otherwise only slots past the recorded write pointer are
  read),
* the cleaning-position statistics, policy registers, wear-leveler
  state and store counters, which a bare scan could not reconstruct.

Bytes read back out of Flash are outside input (under the file backend
an editable image): :func:`decode_state` runs no code, and any failure
to inflate, parse or match the record's shape (a ``NaN``, a negative
count, a utilization outside [0, 1] or a clean stamped after the last
flush included) is a :class:`CheckpointError`.

The blob is chunked into pages and programmed into one metadata segment;
each chunk's OOB carries ``kind=CHECKPOINT``, the chunk index as its
logical page, the checkpoint id as its epoch, the total chunk count in
the position field, the chunk's true byte length in ``aux``, and a CRC
of the (padded) chunk payload.  A checkpoint is usable only if *every*
chunk of its id is present and CRC-clean, so a torn checkpoint is
simply ignored in favour of the previous one.

Ping-pong placement
-------------------

With ``checkpoint_segments >= 2`` metadata segments, a new checkpoint is
always programmed into an erased segment *before* the stale one is
erased.  A power failure at any point therefore leaves at least one
complete checkpoint intact — the write is atomic at the granularity of
"latest complete id wins".
"""

from __future__ import annotations

import json
import zlib
from typing import Callable, Dict, Optional, Tuple

from ..flash.array import FlashArray
from ..flash.errors import FlashError
from ..flash.oob import CHECKPOINT, OobRecord, pack_oob, payload_crc, unpack_oob

__all__ = ["CheckpointManager", "CheckpointError", "capture", "decode_state",
           "encode_state", "read_latest_checkpoint"]


class CheckpointError(RuntimeError):
    """Raised when a checkpoint cannot be placed, or encoded state cannot
    be decoded into a record."""


#: Bound on an inflated state (a crafted blob must not exhaust memory).
MAX_STATE_BYTES = 1 << 27
#: Store counters a record carries: the cleaning-cost numerator and
#: denominators, and the flushed-copy rescues.
COUNTERS = ("flush_count", "clean_copy_count", "transfer_count",
            "erase_count", "rescue_count")
#: Cleaning statistics of a position (locality gathering's inputs).
POSITION_STATS = ("clean_count", "last_clean_seq", "avg_clean_interval",
                  "last_clean_utilization", "product")
#: Persistent registers of a hybrid partition.
PARTITION_STATE = ("active", "next_victim", "clean_count",
                   "last_clean_seq", "avg_clean_interval", "product")
#: Persistent registers of the greedy and FIFO policies.
REGISTERS = ("_active", "_next_victim")
#: One column per OOB field of a slot record.
COLUMNS = ("kind", "page", "epoch", "seq", "position")

_INT = (int,)
_NUM = (int, float, type(None))
#: An int no writer makes negative.
_COUNT = "count"
_FRACTION = "fraction"
#: The shape of a record: a dict gives the shape of each key it requires
#: (a snapshot adds keys), a one-item list the shape of every element, a
#: tuple the types a value may have, :data:`_COUNT` a count,
#: :data:`_FRACTION` a number in [0, 1].
RECORD_SHAPE = {
    **dict.fromkeys(("checkpoint_id", "write_epoch", "seq_counter"), _COUNT),
    "spare_phys": _INT,
    **dict.fromkeys(("retired_phys", "reserve_phys", "metadata_phys"),
                    [_INT]),
    "phys_erase_counts": [_COUNT],
    "counters": dict.fromkeys(COUNTERS, _COUNT),
    "segments": [{"erase_count": _COUNT, "write_pointer": _COUNT,
                  **dict.fromkeys(COLUMNS, [_INT])}],
    "positions": [{"phys": _INT, "demoted": [_INT],
                   **dict.fromkeys(POSITION_STATS, _NUM),
                   "clean_count": _COUNT, "last_clean_seq": _COUNT,
                   "last_clean_utilization": _FRACTION}],
    "policy": {"name": (str,), "registers": [_INT], "partitions": [{
        **dict.fromkeys(PARTITION_STATE, _NUM), "active": _INT,
        "next_victim": _INT, "clean_count": _COUNT,
        "last_clean_seq": _COUNT}]},
    "leveler": {"swap_count": _COUNT, "last_swap": _INT},
}


def _fits(value, shape) -> bool:
    if shape is _COUNT:
        return type(value) is int and value >= 0
    if shape is _FRACTION:
        return type(value) in (int, float) and 0 <= value <= 1
    if isinstance(shape, dict):
        return (isinstance(value, dict) and value.keys() >= shape.keys()
                and all(_fits(value[key], sub)
                        for key, sub in shape.items()))
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(item, shape[0])
                                               for item in value)
    return type(value) in shape


def encode_state(state: dict) -> bytes:
    """A record (plain dicts, lists, ints, floats, strings) as bytes."""
    return zlib.compress(json.dumps(state, sort_keys=True,
                                    separators=(",", ":")).encode())


def _refuse_constant(name: str):
    """``NaN`` and ``Infinity`` are JSON extensions no record holds."""
    raise ValueError(f"non-finite constant {name}")


def decode_state(blob: bytes) -> dict:
    """Inverse of :func:`encode_state` for a record of RECORD_SHAPE (a
    snapshot adds keys); raises :class:`CheckpointError` on anything
    else."""
    inflater = zlib.decompressobj()
    try:
        text = inflater.decompress(blob, MAX_STATE_BYTES)
        if inflater.unconsumed_tail or not inflater.eof:
            raise CheckpointError(
                f"state truncated or over {MAX_STATE_BYTES} bytes")
        state = json.loads(text, parse_constant=_refuse_constant)
    except (zlib.error, ValueError, RecursionError) as error:
        raise CheckpointError(f"undecodable state: {error}") from None
    if not _fits(state, RECORD_SHAPE):
        raise CheckpointError("state does not have the shape of a record")
    # A clean stamps the flush count it ran at (store and hybrid alike).
    flushes = state["counters"]["flush_count"]
    if any(stats["last_clean_seq"] > flushes for stats
           in state["positions"] + state["policy"]["partitions"]):
        raise CheckpointError(f"state has a clean after its last flush "
                              f"({flushes})")
    return state


def capture(ctrl) -> dict:
    """The controller's SRAM metadata as one record.

    The slot records are parsed from the array's stored OOB images —
    information the controller equivalently holds in SRAM, so the
    capture itself is a memory dump and costs no Flash reads.  Sets
    become sorted lists so the record encodes as JSON.
    """
    store, policy = ctrl.store, ctrl.policy
    segments = []
    for seg in ctrl.array.segments:
        rows = [(0,) * len(COLUMNS) if rec is None else
                (rec.kind, rec.logical_page, rec.epoch, rec.seq,
                 rec.position)
                for rec in map(unpack_oob, seg.oob[:seg.write_pointer])]
        columns = list(zip(*rows)) or [()] * len(COLUMNS)
        segments.append({"erase_count": seg.erase_count,
                         "write_pointer": seg.write_pointer,
                         **{name: list(column)
                            for name, column in zip(COLUMNS, columns)}})
    return {
        "checkpoint_id": (0 if ctrl.checkpointer is None
                          else ctrl.checkpointer.checkpoint_id),
        "write_epoch": ctrl.page_table.write_epoch,
        "seq_counter": store.seq_counter,
        "segments": segments,
        "spare_phys": store.spare_phys,
        "retired_phys": sorted(store.retired_phys),
        "reserve_phys": list(store.reserve_phys),
        "metadata_phys": sorted(store.metadata_phys),
        "phys_erase_counts": list(store.phys_erase_counts),
        "counters": {name: getattr(store, name) for name in COUNTERS},
        "positions": [{"phys": pos.phys,
                       "demoted": sorted(pos.demoted),
                       **{name: getattr(pos, name)
                          for name in POSITION_STATS}}
                      for pos in store.positions],
        "policy": {
            "name": policy.name,
            "registers": [getattr(policy, name, 0) for name in REGISTERS],
            "partitions": [{name: getattr(part, name)
                            for name in PARTITION_STATE}
                           for part in getattr(policy, "partitions", ())],
        },
        "leveler": {"swap_count": ctrl.leveler.swap_count,
                    "last_swap": ctrl.leveler._last_swap_erase_count},
    }


class CheckpointManager:
    """Writes periodic metadata checkpoints through the program path."""

    def __init__(self, controller) -> None:
        self.controller = controller
        self.segments = sorted(controller.store.metadata_phys)
        if len(self.segments) < 2:
            raise CheckpointError(
                "checkpointing needs at least two metadata segments")
        #: Id of the newest complete checkpoint (0 = none yet).
        self.checkpoint_id = 0
        #: Metadata segment holding the newest complete checkpoint.
        self.holder: Optional[int] = None
        self.enabled = True
        #: Why checkpointing shut itself off (None while healthy).
        self.failure_reason: Optional[str] = None
        self.checkpoints_written = 0
        self.last_chunk_count = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _disable(self, reason: str) -> None:
        self.enabled = False
        self.failure_reason = reason
        self.controller.array.emit_fault("checkpoint_disabled", -1, reason)
        bus = self.controller.events
        if bus.active:
            from ..obs.events import CHECKPOINT_DISABLED

            bus.mark(CHECKPOINT_DISABLED, {"reason": reason})

    def _erase_metadata(self, phys: int) -> int:
        """Erase a metadata segment (its chunks are always disposable)."""
        from ..flash.segment import PageState

        array = self.controller.array
        seg = array.segment(phys)
        for slot in range(seg.write_pointer):
            if seg.states[slot] is PageState.VALID:
                seg.invalidate_page(slot)
        return array.erase_segment(phys)

    def _pick_target(self) -> Optional[Tuple[int, int]]:
        """An erased metadata segment to write into; returns
        ``(phys, erase_ns)`` where erase_ns is time spent making room."""
        array = self.controller.array
        for phys in self.segments:
            if phys == self.holder:
                continue
            seg = array.segment(phys)
            if seg.is_bad:
                continue
            if seg.is_erased:
                return phys, 0
        # No erased segment free (e.g. a torn checkpoint left a partial
        # one behind): reclaim the first healthy non-holder.
        for phys in self.segments:
            if phys == self.holder or array.segment(phys).is_bad:
                continue
            try:
                return phys, self._erase_metadata(phys)
            except FlashError as exc:
                self._disable(f"metadata segment {phys} failed: {exc}")
                return None
        self._disable("no healthy metadata segment available")
        return None

    def write_checkpoint(self) -> int:
        """Capture and program one checkpoint; returns nanoseconds spent.

        On any failure (oversized state, exhausted program retries, bad
        metadata block) checkpointing disables itself and records the
        reason — the system keeps running, recovery just falls back to a
        full scan.
        """
        if not self.enabled:
            return 0
        ctrl = self.controller
        array = ctrl.array
        page_bytes = array.page_bytes
        state = capture(ctrl)
        state["checkpoint_id"] = cid = self.checkpoint_id + 1
        blob = encode_state(state)
        chunk_count = max(1, -(-len(blob) // page_bytes))
        if chunk_count > array.pages_per_segment:
            self._disable(
                f"checkpoint needs {chunk_count} pages but a metadata "
                f"segment holds {array.pages_per_segment}")
            return 0
        picked = self._pick_target()
        if picked is None:
            return 0
        target, ns = picked
        try:
            for index in range(chunk_count):
                chunk = blob[index * page_bytes:(index + 1) * page_bytes]
                data = chunk.ljust(page_bytes, b"\0")
                oob = pack_oob(OobRecord(CHECKPOINT, index, cid, index,
                                         chunk_count, payload_crc(data),
                                         len(chunk)))
                _, program_ns = array.program_page(target, data, oob=oob)
                ns += program_ns
        except FlashError as exc:
            self._disable(f"checkpoint program failed: {exc}")
            return ns
        stale, self.holder = self.holder, target
        self.checkpoint_id = cid
        self.checkpoints_written += 1
        self.last_chunk_count = chunk_count
        if stale is not None:
            try:
                ns += self._erase_metadata(stale)
            except FlashError as exc:
                # The new checkpoint is safe; we just lost the ping-pong
                # partner.  _pick_target will route around it next time.
                ctrl.array.emit_fault("checkpoint_erase_failed", stale,
                                      str(exc))
        return ns


# ----------------------------------------------------------------------
# Read path (used by recovery, which has no CheckpointManager yet)
# ----------------------------------------------------------------------

def read_latest_checkpoint(array: FlashArray, metadata_phys, fits: Callable
                           ) -> Tuple[Optional[dict], int, int]:
    """Find and decode the newest complete checkpoint.

    Scans every metadata segment's OOB records, groups CHECKPOINT chunks
    by id, and returns the newest id whose chunks are all present, pass
    their CRCs and decode to a record for this array that ``fits``, as
    ``(state, chunks_read, holder)``; ``(None, chunks_read, -1)`` if none.
    Reads go through the array's fault path, so a bit flip in a chunk
    simply demotes that checkpoint like a torn write would.
    """
    candidates: Dict[int, Dict[int, bytes]] = {}
    totals: Dict[int, int] = {}
    holders: Dict[int, int] = {}
    chunks_read = 0
    for phys in sorted(metadata_phys):
        seg = array.segment(phys)
        if seg.is_bad:
            continue
        for slot in range(seg.write_pointer):
            chunks_read += 1
            rec = unpack_oob(array.read_oob(phys, slot))
            if rec is None or not rec.is_checkpoint:
                continue
            data = array.read_page(phys, slot)
            if data is None or payload_crc(data) != rec.payload_crc:
                continue
            cid = rec.epoch
            totals[cid] = rec.position
            holders[cid] = phys
            chunk = bytes(data[:rec.aux])
            candidates.setdefault(cid, {})[rec.logical_page] = chunk
    for cid in sorted(candidates, reverse=True):
        total = totals[cid]
        chunks = candidates[cid]
        if len(chunks) != total or set(chunks) != set(range(total)):
            continue
        blob = b"".join(chunks[i] for i in range(total))
        try:
            state = decode_state(blob)
        except CheckpointError:
            continue
        if state["checkpoint_id"] != cid \
                or len(state["segments"]) != array.num_segments \
                or not fits(state):
            continue
        return state, chunks_read, holders[cid]
    return None, chunks_read, -1
