"""The one subscription idiom: public lists on array, store, controller.

Everything outside an object that observes or interrupts it subscribes
to one of its listener lists (``append`` / ``remove``, fired in
registration order); nothing assigns over a method.  These tests pin
the consequences: two instruments on one array never disturb each
other, every subscriber hears every event exactly once and in order,
a raising pre-op hook leaves the medium untouched, and the kill-point
space is the one the method shadows counted.
"""

import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cleaning import SegmentStore
from repro.core import EnvyConfig, EnvySystem
from repro.core.chaos import KillSwitch, run_chaos
from repro.core.checkpoint import CheckpointManager
from repro.core.config import FlashParams
from repro.core.recovery import (SimulatedPowerFailure, attach_journal,
                                 recover)
from repro.flash.array import FlashArray
from repro.service.chaos import run_redundancy_chaos, run_service_chaos

BACKENDS = ["flash", "file", "onfi", "ramdisk"]


def build_system(backend, tmp_path):
    config = EnvyConfig.small(num_segments=8, pages_per_segment=32)
    if backend == "file":
        backend = f"file:path={tmp_path / 'array.img'}"
    return EnvySystem(replace(config, backend=backend))


def write_traffic(system, shadow, rng, writes):
    for _ in range(writes):
        address = rng.randrange(system.size_bytes - 8) & ~7
        value = rng.randbytes(8)
        system.write(address, value)
        shadow[address] = value


class TestInstrumentsStack:
    """The regression the method shadows had: with journal crash
    injection and an op-counting switch on one array, detaching either
    used to pop the other's wrapper too, and ``arm`` never fired again."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("leaver", [0, 1])
    def test_detaching_one_leaves_the_other_firing_on_time(
            self, backend, leaver, tmp_path):
        system = build_system(backend, tmp_path)
        journal = attach_journal(system)
        switches = [KillSwitch(system.array), KillSwitch(system.array)]
        rng = random.Random(5)
        shadow = {}
        write_traffic(system, shadow, rng, 1200)
        assert switches[0].ops == switches[1].ops > 100
        gone, stays = switches[leaver], switches[1 - leaver]
        gone.detach()
        frozen = gone.ops
        armed_at = stays.ops
        stays.arm(7)
        with pytest.raises(SimulatedPowerFailure):
            write_traffic(system, {}, rng, 400)
        assert stays.ops == armed_at + 7
        assert gone.ops == frozen
        assert system.array.pre_op_hooks == [stays._on_op]
        # A fired switch is inert: recovery's own erases pass through.
        recover(system, journal)
        system.drain()
        for address, value in shadow.items():
            assert system.read(address, 8) == value, hex(address)
        system.check_consistency()
        stays.detach()
        assert system.array.pre_op_hooks == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_constructor_armed_switch_survives_a_neighbours_detach(
            self, backend, tmp_path):
        # Only the API both injectors always had, so this one runs —
        # and fails — at the commit before the hook list.
        system = build_system(backend, tmp_path)
        counter = KillSwitch(system.array)
        killer = KillSwitch(system.array, kill_at=60)
        counter.detach()
        with pytest.raises(SimulatedPowerFailure):
            write_traffic(system, {}, random.Random(5), 1200)
        assert killer.ops == 60 and counter.ops == 0
        killer.detach()

    def test_torn_cut_detaches_and_refuses_to_be_rearmed(self):
        system = build_system("flash", None)
        bystander = KillSwitch(system.array)
        torn = KillSwitch(system.array, tear=True)
        torn.arm(1)
        page = bytes(range(256))
        with pytest.raises(SimulatedPowerFailure):
            system.array.program_page(system.store.spare_phys, page)
        spare = system.array.segment(system.store.spare_phys)
        assert spare.write_pointer == 1          # the torn copy landed
        assert spare.read_page(0) != page
        assert torn.ops == 1
        assert bystander.ops == 2                # cut op + torn program
        assert system.array.pre_op_hooks == [bystander._on_op]
        with pytest.raises(RuntimeError):
            torn.arm(1)
        with pytest.raises(ValueError):
            bystander.arm(0)


class TestKillPointSpaceUnchanged:
    """``ops_seen`` of the three default dry runs, recorded at the
    commit whose injectors still shadowed ``program_page`` /
    ``erase_segment`` from outside the backend subclass: data and
    checkpoint programs, cleaning, metadata and retirement erases must
    each still count exactly once through the base-class hook."""

    def test_core_dry_run(self):
        config = EnvyConfig.small(num_segments=10, pages_per_segment=16,
                                  checkpoint_interval_flushes=6)
        chunks = []
        write = CheckpointManager.write_checkpoint

        def counted(manager):
            ns = write(manager)
            chunks.append(manager.last_chunk_count)
            return ns
        with mock.patch.object(CheckpointManager, "write_checkpoint",
                               counted):
            ops = run_chaos(config, recover=False).ops_seen
        assert ops == 102
        # The checkpoint format sets only the chunk programs (14 over 3
        # checkpoints); every other flash operation is pinned apart.
        assert len(chunks) == 3
        assert ops - sum(chunks) == 88

    def test_service_dry_run(self):
        assert run_service_chaos(recover=False).ops_seen == 83

    def test_redundancy_dry_run(self):
        assert run_redundancy_chaos().ops_seen == 1159


# ----------------------------------------------------------------------
# Subscribe / unsubscribe / fire over every listener list
# ----------------------------------------------------------------------

POINTS = ["pre_op", "copy", "flush", "program", "access"]


class HookLists(RuleBasedStateMachine):
    """Model: one ordered list of subscriber ids per subscription point.

    Each ``fire_*`` rule produces one or more events at its point; the
    log must read as consecutive blocks, one per event, each holding
    every subscribed id exactly once in registration order with the
    same arguments.
    """

    def __init__(self):
        super().__init__()
        self.array = FlashArray(
            FlashParams(chip_bytes=4096, chips_per_bank=4, num_banks=1,
                        erase_blocks_per_chip=4), page_bytes=256)
        self.store = SegmentStore(4, 8, 16)
        self.store.populate_sequential()
        self.system = EnvySystem(EnvyConfig.small(num_segments=4,
                                                  pages_per_segment=8))
        self.lists = {"pre_op": self.array.pre_op_hooks,
                      "copy": self.store.copy_listeners,
                      "flush": self.system.flush_listeners,
                      "program": self.system.store.program_listeners,
                      "access": self.system.access_listeners}
        #: Subscribers that were there first (the controller's own).
        self.residents = {name: list(real)
                          for name, real in self.lists.items()}
        self.model = {name: [] for name in POINTS}
        self.callbacks = {}
        self.log = []

    # --- subscribe / unsubscribe -------------------------------------

    @rule(point=st.sampled_from(POINTS))
    def subscribe(self, point):
        ident = len(self.callbacks)

        def listener(*args):
            self.log.append((ident, args))

        self.callbacks[ident] = listener
        self.lists[point].append(listener)
        self.model[point].append(ident)

    @rule(point=st.sampled_from(POINTS), pick=st.integers(0, 1 << 16))
    def unsubscribe(self, point, pick):
        if self.model[point]:
            ident = self.model[point].pop(pick % len(self.model[point]))
            self.lists[point].remove(self.callbacks[ident])

    @invariant()
    def nobody_else_moved(self):
        for name, real in self.lists.items():
            assert real == self.residents[name] + [
                self.callbacks[ident] for ident in self.model[name]]

    # --- fire ---------------------------------------------------------

    def fired(self, point, events):
        """The log is ``events`` blocks of the model's ids, in order."""
        ids = self.model[point]
        assert len(self.log) == events * len(ids)
        for start in range(0, len(self.log), len(ids) or 1):
            block = self.log[start:start + len(ids)]
            assert [ident for ident, _ in block] == ids
            assert len({repr(args) for _, args in block}) <= 1
        del self.log[:]

    def free_segment(self):
        for segment in range(self.array.num_segments):
            if self.array.segment(segment).free_pages:
                return segment
        self.array.erase_segment(0)
        self.fired("pre_op", 1)
        return 0

    @rule()
    def fire_pre_op(self):
        segment = self.free_segment()
        self.array.program_page(segment, bytes(256))
        self.fired("pre_op", 1)

    @rule(position=st.integers(0, 3))
    def fire_copy(self, position):
        copies = self.store.clean(position)
        self.fired("copy", copies)

    @rule(pick=st.integers(0, 1 << 16))
    def fire_flush_and_program(self, pick):
        system = self.system
        before = system.metrics.flushes
        page = pick % system.config.logical_pages
        system.write(page * system.config.page_bytes, b"\x01")
        system.drain()
        flushes = system.metrics.flushes - before
        assert flushes >= 1
        flush_ids, program_ids = self.model["flush"], self.model["program"]
        log, self.log = self.log, []
        # The host write is heard once; then, per flush, the program
        # lands first and the flush ends after it.
        expected = self.model["access"] + (program_ids + flush_ids) * flushes
        assert [ident for ident, _ in log] == expected

    @rule(pick=st.integers(0, 1 << 16), count=st.integers(1, 5))
    def fire_access_reads(self, pick, count):
        system = self.system
        page_bytes = system.config.page_bytes
        page = pick % (system.config.logical_pages - 1)
        first_ns, repeat_ns = system.read_run_ns(page, count)
        # A run is one event, two when its head cost more than a repeat.
        self.fired("access", 1 + (first_ns != repeat_ns))
        # One call over two pages is one event, not one per page priced.
        system.read_timed((page + 1) * page_bytes - 4, 8)
        self.fired("access", 1)

    # --- a raising pre-op hook ----------------------------------------

    @rule(erase=st.booleans())
    def cut_leaves_the_array_untouched(self, erase):
        class Cut(Exception):
            pass

        def cut(*args):
            raise Cut

        segment = self.free_segment()
        seg = self.array.segment(segment)
        before = (seg.write_pointer, seg.program_count, seg.erase_count,
                  list(seg.states))
        self.array.pre_op_hooks.append(cut)
        try:
            with pytest.raises(Cut):
                if erase:
                    self.array.erase_segment(segment)
                else:
                    self.array.program_page(segment, bytes(256))
        finally:
            self.array.pre_op_hooks.remove(cut)
        assert before == (seg.write_pointer, seg.program_count,
                          seg.erase_count, list(seg.states))
        # Everyone registered before the raiser still heard the event.
        self.fired("pre_op", 1)


HookLists.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestHookLists = HookLists.TestCase
