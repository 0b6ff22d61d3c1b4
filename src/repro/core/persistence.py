"""Saving and restoring a whole eNVy system image.

The real hardware never needs this — its state *is* the Flash and
battery-backed SRAM — but a software model does: long-running
simulations, pre-warmed arrays for benchmarks, and test fixtures all
want to park a system on the host filesystem and pick it up later.

The snapshot captures everything the hardware would retain across a
power cycle (Flash contents and wear, bad-block retirements, page
table, write buffer, cleaning state including the policy's persistent
registers) and nothing it would not (the MMU translation cache), plus
the controller metrics.  Restoring therefore behaves exactly like a
power-cycle recovery on a machine that happens to be a different
Python process.

Format (version 2): magic, u16 version, u64 payload length, the
payload's CRC-32, then the checkpoint record
(:func:`repro.core.checkpoint.capture`) plus the snapshot-only keys in
the checkpoint's encoding (zlib-compressed JSON).  A snapshot is outside
input: loading runs no code from it, and anything but a snapshot this
module wrote raises :class:`SnapshotError`, version 1 (pickle) included.
"""

from __future__ import annotations

import dataclasses
import io
import struct
import zlib
from typing import BinaryIO, Union

from ..cleaning.store import IN_BUFFER, StoreError
from ..faults.plan import FaultPlan
from ..flash.segment import PageState
from ..sram.pagetable import Location
from .checkpoint import (MAX_STATE_BYTES, CheckpointError, capture,
                         decode_state, encode_state)
from .config import EnvyConfig, FlashParams, SramParams
from .controller import EnvyController
from .recovery import _restore_history

__all__ = ["save_system", "load_system", "SnapshotError"]

MAGIC = b"eNVySNAP"
VERSION = 2
#: Payload length and CRC-32, after the magic and the version.
_LENGTH_CRC = struct.Struct("<QI")


class SnapshotError(Exception):
    """Raised for unreadable or incompatible snapshots."""


def save_system(system: EnvyController,
                target: Union[str, BinaryIO]) -> None:
    """Write a snapshot of ``system`` to a path or binary stream."""
    metrics = system.metrics.state_dict()
    for name in ("read_latency", "write_latency"):
        metrics[name]["buckets"] = sorted(metrics[name]["buckets"].items())
    state = capture(system)
    state.update({
        "config": dataclasses.asdict(system.config),
        "store_data": system.store_data,
        "slots": [pos.slots for pos in system.store.positions],
        "page_location": system.store.page_location,
        "page_epochs": system.page_table._epochs,
        "holder": (None if system.checkpointer is None
                   else system.checkpointer.holder),
        "flash": [{
            "states": [int(state) for state in seg.states],
            "data": ([None if d is None else d.hex() for d in seg.data]
                     if seg.store_data else None),
            "oob": [None if raw is None else raw.hex() for raw in seg.oob],
            "program_count": seg.program_count,
            "is_bad": seg.is_bad,
        } for seg in system.array.segments],
        "buffer": [(entry.logical_page,
                    None if entry.data is None else entry.data.hex(),
                    entry.origin)
                   for entry in system.buffer.entries()],
        "bad_blocks": (None if system.bad_blocks is None
                       else list(system.bad_blocks.retired.items())),
        "metrics": metrics,
    })
    payload = encode_state(state)
    header = (MAGIC + VERSION.to_bytes(2, "little")
              + _LENGTH_CRC.pack(len(payload), zlib.crc32(payload)))
    if isinstance(target, str):
        with open(target, "wb") as handle:
            handle.write(header + payload)
    else:
        target.write(header + payload)


def load_system(source: Union[str, BinaryIO]) -> EnvyController:
    """Rebuild a controller from a snapshot (path or binary stream)."""
    if isinstance(source, str):
        with open(source, "rb") as handle:
            state = _read(handle)
    else:
        state = _read(source)
    try:
        return _restore(state)
    except (KeyError, IndexError, TypeError, ValueError, StoreError) as error:
        raise SnapshotError(f"snapshot state does not restore: {error!r}") \
            from None


def _restore(state: dict) -> EnvyController:
    fields = state["config"]
    plan = fields["fault_plan"]
    config = EnvyConfig(**{
        **fields, "flash": FlashParams(**fields["flash"]),
        "sram": SramParams(**fields["sram"]),
        "fault_plan": None if plan is None else FaultPlan(**plan)})
    # Check the geometry against the contents before allocating for it.
    segments = (config.flash.num_segments + 1 + config.reserve_segments
                + config.effective_checkpoint_segments)
    if [len(saved["states"]) for saved in state["flash"]] != \
            [config.pages_per_segment] * segments:
        raise SnapshotError("snapshot Flash contents do not match the "
                            "geometry of its config")
    system = EnvyController(config, store_data=state["store_data"],
                            _skip_format=True)
    for segment, record, saved in zip(system.array.segments,
                                      state["segments"], state["flash"]):
        segment.states = [PageState(v) for v in saved["states"]]
        if segment.store_data and saved["data"] is not None:
            segment.data = [None if d is None else bytes.fromhex(d)
                            for d in saved["data"]]
        segment.oob = [None if raw is None else bytes.fromhex(raw)
                       for raw in saved["oob"]]
        segment.erase_count = record["erase_count"]
        segment.write_pointer = record["write_pointer"]
        segment.program_count = saved["program_count"]
        segment.is_bad = saved["is_bad"]
        segment.rebuild_live_slots()
        segment.live_count = len(segment.live_slots)
    store = system.store
    store.metadata_phys = set(state["metadata_phys"])
    store.seq_counter = state["seq_counter"]
    positions = state["positions"]
    store.restore_layout(
        state["slots"], [p["phys"] for p in positions],
        [None if loc is None else tuple(loc)
         for loc in state["page_location"]], state["spare_phys"],
        state["retired_phys"], state["reserve_phys"],
        state["phys_erase_counts"])
    for position, saved in zip(store.positions, positions):
        position.demoted = set(saved["demoted"])
    if system.bad_blocks is not None and state["bad_blocks"] is not None:
        system.bad_blocks.retired = dict(state["bad_blocks"])
        system.bad_blocks.reserve = list(store.reserve_phys)
    # Write buffer contents (battery backed), checked against the
    # restored geometry: a stray row would only fail at its flush.
    for logical_page, data, origin in state["buffer"]:
        if not (0 <= logical_page < len(store.page_location)
                and (origin is None or 0 <= origin < len(store.positions))):
            raise SnapshotError(
                f"write-buffer row (page {logical_page}, origin {origin}) "
                f"lies outside the restored geometry")
        system.buffer.insert(
            logical_page,
            None if data is None else bytearray.fromhex(data), origin)
    # Page table: rebuilt from the store (flash) and buffer (sram).
    for page, location in enumerate(store.page_location):
        if location == IN_BUFFER:
            system.page_table.update(page, Location.sram(page))
        elif location is not None:
            system.page_table.update(page, Location.flash(*location))
    system.page_table._epochs = list(state["page_epochs"])
    store.page_epochs = list(state["page_epochs"])
    system.page_table.write_epoch = state["write_epoch"]
    system.mmu.flush()
    _restore_history(system, state)
    if system.checkpointer is not None:
        system.checkpointer.segments = sorted(store.metadata_phys)
        system.checkpointer.holder = state["holder"]
    system.metrics.load_state(state["metrics"])
    return system


def _read(handle: BinaryIO) -> dict:
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise SnapshotError("not an eNVy snapshot (bad magic)")
    version = int.from_bytes(handle.read(2), "little")
    if version != VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version} (this build reads "
            f"version {VERSION} only)")
    header = handle.read(_LENGTH_CRC.size)
    if len(header) != _LENGTH_CRC.size:
        raise SnapshotError("truncated snapshot header")
    length, crc = _LENGTH_CRC.unpack(header)
    payload = handle.read(min(length, MAX_STATE_BYTES))
    if len(payload) != length:
        raise SnapshotError(f"truncated snapshot: {len(payload)} of "
                            f"{length} payload bytes")
    if zlib.crc32(payload) != crc:
        raise SnapshotError("snapshot payload fails its CRC")
    try:
        return decode_state(payload)
    except CheckpointError as error:
        raise SnapshotError(str(error)) from None


def roundtrip(system: EnvyController) -> EnvyController:
    """Save to memory and load back (handy in tests)."""
    buffer = io.BytesIO()
    save_system(system, buffer)
    buffer.seek(0)
    return load_system(buffer)
