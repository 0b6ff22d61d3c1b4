"""Saving and restoring a whole eNVy system image.

The real hardware never needs this — its state *is* the Flash and
battery-backed SRAM — but a software model does: long-running
simulations, pre-warmed arrays for benchmarks, and test fixtures all
want to park a system on the host filesystem and pick it up later.

The snapshot captures everything the hardware would retain across a
power cycle (Flash contents and wear, page table, write buffer,
cleaning state including the policy's persistent registers) and nothing
it would not (the MMU translation cache).  Restoring therefore behaves
exactly like a power-cycle recovery on a machine that happens to be a
different Python process.  Controller metrics — counters and the full
latency histograms — also ride along, so a restored long-running
benchmark keeps its statistics; snapshots written before the metrics
rode along restore with freshly reset metrics.

Format: a small versioned header plus a pickle of the component state
dictionaries.  Snapshots are trusted inputs (your own files), the same
assumption ``numpy.load`` makes.
"""

from __future__ import annotations

import io
import pickle
from typing import BinaryIO, Union

from ..cleaning.hybrid import HybridPolicy
from .controller import EnvyController

__all__ = ["save_system", "load_system", "SnapshotError"]

MAGIC = b"eNVySNAP"
VERSION = 1


class SnapshotError(Exception):
    """Raised for unreadable or incompatible snapshots."""


def _position_state(position) -> dict:
    return {
        "slots": list(position.slots),
        "live_count": position.live_count,
        "phys": position.phys,
        "demoted": set(position.demoted),
        "clean_count": position.clean_count,
        "last_clean_seq": position.last_clean_seq,
        "avg_clean_interval": position.avg_clean_interval,
        "last_clean_utilization": position.last_clean_utilization,
        "product": position.product,
    }


def _segment_state(segment) -> dict:
    return {
        "states": [int(state) for state in segment.states],
        "data": list(segment.data) if segment.store_data else None,
        "oob": list(segment.oob),
        "erase_count": segment.erase_count,
        "program_count": segment.program_count,
        "write_pointer": segment.write_pointer,
        "live_count": segment.live_count,
    }


def _policy_state(policy) -> dict:
    state = {"name": policy.name}
    if isinstance(policy, HybridPolicy):
        state["partitions"] = [{
            "active": part.active,
            "next_victim": part.next_victim,
            "clean_count": part.clean_count,
            "last_clean_seq": part.last_clean_seq,
            "avg_clean_interval": part.avg_clean_interval,
            "product": part.product,
        } for part in policy.partitions]
    for attr in ("_active", "_next_victim"):
        if hasattr(policy, attr):
            state[attr] = getattr(policy, attr)
    return state


def save_system(system: EnvyController,
                target: Union[str, BinaryIO]) -> None:
    """Write a snapshot of ``system`` to a path or binary stream."""
    store = system.store
    state = {
        "config": system.config,
        "store_data": system.store_data,
        "policy": _policy_state(system.policy),
        "positions": [_position_state(p) for p in store.positions],
        "spare_phys": store.spare_phys,
        "phys_erase_counts": list(store.phys_erase_counts),
        "page_location": list(store.page_location),
        "counters": {
            "flush_count": store.flush_count,
            "clean_copy_count": store.clean_copy_count,
            "transfer_count": store.transfer_count,
            "erase_count": store.erase_count,
        },
        # Crash-consistency state: per-page write epochs, the epoch and
        # program-sequence counters, and the checkpoint cursor.  Without
        # them a restored system would restart epochs at 1, and a later
        # recovery scan would elect stale copies as winners.
        "page_epochs": list(system.page_table._epochs),
        "write_epoch": system.page_table.write_epoch,
        "seq_counter": store.seq_counter,
        "checkpointer": None if system.checkpointer is None else {
            "checkpoint_id": system.checkpointer.checkpoint_id,
            "holder": system.checkpointer.holder,
        },
        "segments": [_segment_state(s) for s in system.array.segments],
        "buffer": [(entry.logical_page,
                    bytes(entry.data) if entry.data is not None else None,
                    entry.origin)
                   for entry in system.buffer.entries()],
        "leveler": {
            "swap_count": system.leveler.swap_count,
            "last_swap": system.leveler._last_swap_erase_count,
        },
        "metrics": system.metrics.state_dict(),
    }
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    if isinstance(target, str):
        with open(target, "wb") as handle:
            _write(handle, payload)
    else:
        _write(target, payload)


def _write(handle: BinaryIO, payload: bytes) -> None:
    handle.write(MAGIC)
    handle.write(VERSION.to_bytes(2, "little"))
    handle.write(len(payload).to_bytes(8, "little"))
    handle.write(payload)


def load_system(source: Union[str, BinaryIO]) -> EnvyController:
    """Rebuild a controller from a snapshot (path or binary stream)."""
    if isinstance(source, str):
        with open(source, "rb") as handle:
            state = _read(handle)
    else:
        state = _read(source)

    from ..flash.segment import PageState

    system = EnvyController(state["config"],
                            store_data=state["store_data"])
    if system.policy.name != state["policy"]["name"]:
        raise SnapshotError(
            f"snapshot used policy {state['policy']['name']!r} but the "
            f"config builds {system.policy.name!r}")
    store = system.store
    # Rebuild below the populated defaults: wipe the formatted layout.
    for position, saved in zip(store.positions, state["positions"]):
        position.slots = list(saved["slots"])
        position.live_count = saved["live_count"]
        position.phys = saved["phys"]
        position.demoted = set(saved["demoted"])
        position.clean_count = saved["clean_count"]
        position.last_clean_seq = saved["last_clean_seq"]
        position.avg_clean_interval = saved["avg_clean_interval"]
        position.last_clean_utilization = saved["last_clean_utilization"]
        position.product = saved["product"]
    store.spare_phys = state["spare_phys"]
    store.phys_erase_counts = list(state["phys_erase_counts"])
    store.page_location = [tuple(loc) if isinstance(loc, (list, tuple))
                           else loc for loc in state["page_location"]]
    for name, value in state["counters"].items():
        setattr(store, name, value)
    # Positions and counters were poked directly; refresh the store's
    # incrementally maintained totals and caches.
    store.rebuild_derived()
    for segment, saved in zip(system.array.segments, state["segments"]):
        segment.states = [PageState(v) for v in saved["states"]]
        if segment.store_data and saved["data"] is not None:
            segment.data = list(saved["data"])
        if saved.get("oob") is not None:
            segment.oob = list(saved["oob"])
        segment.erase_count = saved["erase_count"]
        segment.program_count = saved["program_count"]
        segment.write_pointer = saved["write_pointer"]
        segment.live_count = saved["live_count"]
        segment.rebuild_live_slots()
    # Write buffer contents (battery backed).
    system.buffer._entries.clear()
    for logical_page, data, origin in state["buffer"]:
        system.buffer.insert(
            logical_page,
            bytearray(data) if data is not None else None, origin)
    # Page table: rebuilt from the store (flash) and buffer (sram).
    from ..sram.pagetable import Location

    for page, location in enumerate(store.page_location):
        if location is None:
            system.page_table.clear(page)
        elif location == (-1, -1):
            system.page_table.update(page, Location.sram(page))
        else:
            system.page_table.update(
                page, Location.flash(location[0], location[1]))
    system.mmu.flush()
    # Policy persistent registers.
    policy_state = state["policy"]
    if isinstance(system.policy, HybridPolicy):
        for part, saved in zip(system.policy.partitions,
                               policy_state["partitions"]):
            part.active = saved["active"]
            part.next_victim = saved["next_victim"]
            part.clean_count = saved["clean_count"]
            part.last_clean_seq = saved["last_clean_seq"]
            part.avg_clean_interval = saved["avg_clean_interval"]
            part.product = saved["product"]
    for attr in ("_active", "_next_victim"):
        if attr in policy_state and hasattr(system.policy, attr):
            setattr(system.policy, attr, policy_state[attr])
    system.leveler.swap_count = state["leveler"]["swap_count"]
    system.leveler._last_swap_erase_count = state["leveler"]["last_swap"]
    # Crash-consistency state (absent in pre-OOB snapshots, whose
    # arrays carry no stamps to conflict with the fresh counters).
    if state.get("page_epochs") is not None:
        system.page_table._epochs = list(state["page_epochs"])
        system.page_table.write_epoch = state["write_epoch"]
        store.seq_counter = state["seq_counter"]
    ckpt = state.get("checkpointer")
    if ckpt is not None and system.checkpointer is not None:
        system.checkpointer.checkpoint_id = ckpt["checkpoint_id"]
        system.checkpointer.holder = ckpt["holder"]
    system.metrics.reset()
    if state.get("metrics") is not None:
        system.metrics.load_state(state["metrics"])
    return system


def _read(handle: BinaryIO) -> dict:
    magic = handle.read(len(MAGIC))
    if magic != MAGIC:
        raise SnapshotError("not an eNVy snapshot (bad magic)")
    version = int.from_bytes(handle.read(2), "little")
    if version != VERSION:
        raise SnapshotError(f"unsupported snapshot version {version}")
    length = int.from_bytes(handle.read(8), "little")
    payload = handle.read(length)
    if len(payload) != length:
        raise SnapshotError("truncated snapshot")
    return pickle.loads(payload)


def roundtrip(system: EnvyController) -> EnvyController:
    """Save to memory and load back (handy in tests)."""
    buffer = io.BytesIO()
    save_system(system, buffer)
    buffer.seek(0)
    return load_system(buffer)
