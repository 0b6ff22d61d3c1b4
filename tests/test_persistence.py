"""Tests for whole-system snapshots (save/load)."""

import io
import json
import pickle
import random
import struct
import zlib

import pytest

from repro.core import (EnvyConfig, EnvySystem, load_system,
                        recover_from_flash, save_system)
from repro.core.checkpoint import capture, encode_state
from repro.core.persistence import MAGIC, SnapshotError, roundtrip
from repro.faults.plan import FaultPlan
from repro.flash.oob import CHECKPOINT, OobRecord, pack_oob, payload_crc


def worked_system(policy="hybrid", writes=4000, seed=1):
    system = EnvySystem(EnvyConfig.small(num_segments=8,
                                         pages_per_segment=32,
                                         cleaning_policy=policy))
    rng = random.Random(seed)
    shadow = {}
    for _ in range(writes):
        address = rng.randrange(system.size_bytes - 8) & ~7
        value = rng.randbytes(8)
        system.write(address, value)
        shadow[address] = value
    return system, shadow


class TestRoundTrip:
    def test_data_identical_after_restore(self):
        system, shadow = worked_system()
        copy = roundtrip(system)
        for address, value in shadow.items():
            assert copy.read(address, 8) == value
        copy.check_consistency()

    def test_wear_and_counters_survive(self):
        system, _ = worked_system()
        copy = roundtrip(system)
        assert copy.store.flush_count == system.store.flush_count
        assert copy.store.erase_count == system.store.erase_count
        assert copy.array.wear_stats().erase_counts == \
            system.array.wear_stats().erase_counts

    def test_buffer_contents_survive(self):
        system, _ = worked_system(writes=10)
        assert len(system.buffer) > 0
        copy = roundtrip(system)
        assert len(copy.buffer) == len(system.buffer)
        assert [e.logical_page for e in copy.buffer.entries()] == \
            [e.logical_page for e in system.buffer.entries()]

    @pytest.mark.parametrize("policy", ["greedy", "fifo", "locality",
                                        "hybrid"])
    def test_operation_continues_identically(self, policy):
        """Original and restored systems stay in lock-step forever."""
        system, shadow = worked_system(policy=policy, writes=2000)
        copy = roundtrip(system)
        rng = random.Random(99)
        for _ in range(1500):
            address = rng.randrange(system.size_bytes - 8) & ~7
            value = rng.randbytes(8)
            system.write(address, value)
            copy.write(address, value)
            shadow[address] = value
        assert copy.store.flush_count == system.store.flush_count
        assert copy.store.clean_copy_count == system.store.clean_copy_count
        for address, value in shadow.items():
            assert copy.read(address, 8) == system.read(address, 8) == value
        copy.check_consistency()
        system.check_consistency()

    def test_file_round_trip(self, tmp_path):
        system, shadow = worked_system(writes=500)
        path = str(tmp_path / "system.envy")
        save_system(system, path)
        copy = load_system(path)
        address, value = next(iter(shadow.items()))
        assert copy.read(address, 8) == value

    def test_bad_blocks_survive(self):
        """A retired segment stays retired, and the reserve it swapped
        in stays in use, across a round trip."""
        system = EnvySystem(EnvyConfig.small(
            8, 32, reserve_segments=2,
            fault_plan=FaultPlan.harsh(seed=3)))
        rng = random.Random(1)
        while not system.store.retired_phys:
            system.write(rng.randrange(system.size_bytes - 8) & ~7,
                         rng.randbytes(8))
        assert system.store.reserve_phys
        copy = roundtrip(system)
        assert copy.store.retired_phys == system.store.retired_phys
        assert copy.store.reserve_phys == system.store.reserve_phys
        assert [s.is_bad for s in copy.array.segments] == \
            [s.is_bad for s in system.array.segments]
        assert copy.bad_blocks.retired == system.bad_blocks.retired
        copy.check_consistency()

    def test_stateless_system_snapshots(self):
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=32),
                            store_data=False)
        rng = random.Random(2)
        for _ in range(1000):
            system.write(rng.randrange(system.size_bytes - 4), b"abcd")
        copy = roundtrip(system)
        assert copy.store.flush_count == system.store.flush_count
        copy.check_consistency()


#: Every cleaning register a record restores, per policy: an index
#: into ``registers`` (``_active``, ``_next_victim``) or a partition key.
POLICY_REGISTERS = [("fifo", 0), ("fifo", 1), ("greedy", 0),
                    ("hybrid", "active"), ("hybrid", "next_victim")]


def set_register(state, register, value=10 ** 6):
    saved = state["policy"]
    if isinstance(register, int):
        saved["registers"][register] = value
    else:
        saved["partitions"][-1][register] = value


class TestSnapshotErrors:
    def test_bad_magic(self):
        with pytest.raises(SnapshotError):
            load_system(io.BytesIO(b"garbage data here" * 4))

    def test_truncated_payload(self):
        system, _ = worked_system(writes=50)
        buffer = io.BytesIO()
        save_system(system, buffer)
        clipped = io.BytesIO(buffer.getvalue()[:-20])
        with pytest.raises(SnapshotError):
            load_system(clipped)

    def test_unsupported_version(self):
        system, _ = worked_system(writes=10)
        buffer = io.BytesIO()
        save_system(system, buffer)
        raw = bytearray(buffer.getvalue())
        raw[8] = 99  # bump the version field
        with pytest.raises(SnapshotError):
            load_system(io.BytesIO(bytes(raw)))

    def snapshot_4x8(self, policy="hybrid"):
        system = EnvySystem(EnvyConfig.small(num_segments=4,
                                             pages_per_segment=8,
                                             cleaning_policy=policy))
        rng = random.Random(5)
        for _ in range(60):
            system.write(rng.randrange(system.size_bytes - 8) & ~7,
                         rng.randbytes(8))
        buffer = io.BytesIO()
        save_system(system, buffer)
        return buffer.getvalue()

    def test_every_truncation(self):
        raw = self.snapshot_4x8()
        for length in range(len(raw)):
            with pytest.raises(SnapshotError):
                load_system(io.BytesIO(raw[:length]))

    def test_every_single_bit_flip(self):
        raw = self.snapshot_4x8()
        for bit in range(8 * len(raw)):
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(SnapshotError):
                load_system(io.BytesIO(bytes(flipped)))

    def test_version_1_pickle_refused(self):
        payload = pickle.dumps({"config": None})
        raw = (MAGIC + (1).to_bytes(2, "little")
               + len(payload).to_bytes(8, "little") + payload)
        with pytest.raises(SnapshotError, match="version 1"):
            load_system(io.BytesIO(raw))

    @staticmethod
    def edited(raw, edit):
        """``raw`` with its payload decoded, edited and re-sealed with a
        valid length and CRC (a crafted file, not a damaged one)."""
        # Header: magic and version (10 bytes), length and CRC (12).
        state = json.loads(zlib.decompress(raw[22:]))
        edit(state)
        payload = zlib.compress(json.dumps(state).encode())
        return (raw[:10] + struct.pack("<QI", len(payload),
                                       zlib.crc32(payload)) + payload)

    @pytest.mark.parametrize("edit, message", [
        (lambda state: state.update(segments="x"), "shape"),
        (lambda state: state["config"]["flash"].update(num_banks=10**6),
         "geometry"),
        (lambda state: state.update(slots=[[10**6]] * 4), "restore"),
    ])
    def test_crafted_payload_with_valid_crc(self, edit, message):
        raw = self.edited(self.snapshot_4x8(), edit)
        with pytest.raises(SnapshotError, match=message):
            load_system(io.BytesIO(raw))

    @pytest.mark.parametrize("policy, register", POLICY_REGISTERS)
    def test_register_past_the_last_position(self, policy, register):
        """A CRC-valid snapshot whose cleaning register points past the
        geometry is refused at load, not at the first clean."""
        raw = self.edited(self.snapshot_4x8(policy),
                          lambda state: set_register(state, register))
        with pytest.raises(SnapshotError, match="cleaning register"):
            load_system(io.BytesIO(raw))

    @pytest.mark.parametrize("column, value", [
        (0, 10 ** 7),  # logical page
        (2, 10 ** 6),  # origin position
        (2, -5),
    ])
    def test_buffer_row_outside_the_geometry(self, column, value):
        """A CRC-valid snapshot whose write-buffer row names a page or an
        origin position the geometry lacks is refused at load, not at
        the first flush (or flushed to a wrapped-around position)."""
        raw = self.edited(self.snapshot_4x8(), lambda state: state[
            "buffer"][0].__setitem__(column, value))
        with pytest.raises(SnapshotError, match="write-buffer row"):
            load_system(io.BytesIO(raw))

    def test_unedited_payload_round_trips(self):
        raw = self.snapshot_4x8()
        assert self.edited(raw, lambda state: None) != raw
        copy = load_system(io.BytesIO(self.edited(raw, lambda state: None)))
        again = io.BytesIO()
        save_system(copy, again)
        assert again.getvalue() == raw


#: Calls made by unpickled checkpoint payloads (must stay empty).
UNPICKLED_CALLS = []


def _unpickled_call():
    UNPICKLED_CALLS.append(True)


class _RunsOnUnpickle:
    def __reduce__(self):
        return _unpickled_call, ()


class TestHostileCheckpoint:
    """A complete, CRC-clean checkpoint newer than the last real one,
    whose payload the decoder must refuse: recovery skips it as it
    skips a torn checkpoint and rolls forward from the real one."""

    def plant(self, make_blob, policy="hybrid"):
        config = EnvyConfig.small(num_segments=12, pages_per_segment=16,
                                  checkpoint_interval_flushes=8,
                                  cleaning_policy=policy)
        system = EnvySystem(config)
        rng = random.Random(3)
        for _ in range(600):
            system.write(rng.randrange(system.size_bytes - 8) & ~7,
                         rng.randbytes(8))
        system.drain()
        ckpt = system.checkpointer
        assert ckpt.enabled and ckpt.checkpoint_id > 0
        blob = make_blob(system, ckpt.checkpoint_id + 1)
        array, page_bytes = system.array, config.page_bytes
        target = next(p for p in ckpt.segments if p != ckpt.holder)
        chunks = [blob[i:i + page_bytes]
                  for i in range(0, len(blob), page_bytes)]
        for index, chunk in enumerate(chunks):
            data = chunk.ljust(page_bytes, b"\0")
            array.program_page(target, data, oob=pack_oob(OobRecord(
                CHECKPOINT, index, ckpt.checkpoint_id + 1, index,
                len(chunks), payload_crc(data), len(chunk))))
        pages = [system.read(page * page_bytes, page_bytes)
                 for page in range(config.logical_pages)]
        recovered, report = recover_from_flash(array, config)
        assert report.mode == "checkpoint"
        assert report.checkpoint_id == ckpt.checkpoint_id
        assert [recovered.read(page * page_bytes, page_bytes)
                for page in range(config.logical_pages)] == pages
        recovered.check_consistency()

    def test_pickle_payload_runs_nothing(self):
        UNPICKLED_CALLS.clear()
        self.plant(lambda system, cid: zlib.compress(pickle.dumps(
            {"checkpoint_id": cid, "evil": _RunsOnUnpickle()})))
        assert UNPICKLED_CALLS == []

    @pytest.mark.parametrize("key, value", [
        ("segments", "x"), ("segments", []), ("counters", {}),
        ("write_epoch", "1"), ("policy", None)])
    def test_wrong_shape_is_skipped(self, key, value):
        self.plant(lambda system, cid: encode_state(
            {**capture(system), "checkpoint_id": cid, key: value}))

    @pytest.mark.parametrize("policy, register", POLICY_REGISTERS)
    def test_register_past_the_last_position_is_skipped(self, policy,
                                                        register):
        def blob(system, cid):
            state = {**capture(system), "checkpoint_id": cid}
            set_register(state, register)
            return encode_state(state)

        self.plant(blob, policy)
