"""Property-based tests (hypothesis) on core invariants.

Each property pits a component against a simple reference model or a
structural invariant under randomly generated operation sequences —
exactly the class of bug (placement drift, lost pages, stale mappings)
that plagues real flash-management code.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.backends import RegistryError, parse_spec
from repro.cleaning import (IN_BUFFER, GreedyPolicy, HybridPolicy,
                            LocalityGatheringPolicy, PolicySimulator,
                            WearLeveler, cleaning_cost)
from repro.core import EnvyConfig, EnvySystem
from repro.db import BTree, BTreeGeometry
from repro.ramdisk import BlockDevice
from repro.service import (DegradedModeError, EnvyService, ParityPolicy,
                           ServiceConfig, TenantSpec)
from repro.sram import WriteBuffer
from repro.workloads import TraceWorkload

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


class TestCostModelProperties:
    @given(st.floats(min_value=0.0, max_value=0.999),
           st.floats(min_value=0.0, max_value=0.999))
    @settings(**COMMON)
    def test_cost_monotone(self, a, b):
        low, high = sorted((a, b))
        assert cleaning_cost(low) <= cleaning_cost(high)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(**COMMON)
    def test_cost_non_negative(self, utilization):
        value = cleaning_cost(utilization)
        assert value >= 0.0 or math.isinf(value)


class TestWriteBufferProperties:
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60))
    @settings(**COMMON)
    def test_fifo_eviction_order(self, pages):
        """Evictions happen in first-insertion order, regardless of
        coalesced rewrites in between."""
        buffer = WriteBuffer(capacity_pages=8)
        inserted = []
        evicted = []
        for page in pages:
            if page in buffer:
                buffer.peek(page)
                continue
            if buffer.is_full:
                evicted.append(buffer.pop_tail().logical_page)
            buffer.insert(page, None, origin=0)
            inserted.append(page)
        while len(buffer):
            evicted.append(buffer.pop_tail().logical_page)
        assert evicted == inserted


def replay(simulator, writes):
    """Run ``simulator`` over ``writes``, each taken modulo its pages."""
    live = simulator.store.num_logical_pages
    simulator.run(TraceWorkload(live, [value % live for value in writes]),
                  len(writes))


class TestStoreProperties:
    @given(policy_index=st.integers(0, 2),
           writes=st.lists(st.integers(0, 10 ** 6), min_size=1,
                           max_size=300))
    @settings(max_examples=30, **COMMON)
    def test_policies_never_corrupt_placement(self, policy_index, writes):
        """After any write sequence, every live page is findable, counts
        agree, and the physical mapping is a bijection."""
        policy = (GreedyPolicy(), LocalityGatheringPolicy(),
                  HybridPolicy(partition_segments=4))[policy_index]
        simulator = PolicySimulator(policy, num_segments=8,
                                    pages_per_segment=16,
                                    buffer_pages=4)
        replay(simulator, writes)
        simulator.store.check_invariants()

    @given(writes=st.lists(st.integers(0, 10 ** 6), min_size=50,
                           max_size=300))
    @settings(max_examples=20, **COMMON)
    def test_live_page_count_is_conserved(self, writes):
        simulator = PolicySimulator(GreedyPolicy(), num_segments=8,
                                    pages_per_segment=16, buffer_pages=4)
        replay(simulator, writes)
        store = simulator.store
        buffered = store.page_location.count(IN_BUFFER)
        assert store.live_pages() + buffered == store.num_logical_pages


def _poll_every_flush(simulator, pages):
    """Reference replay: the wear leveler is polled after *every* flush,
    as the simulator did before polls were gated on erases."""
    store, policy = simulator.store, simulator.policy
    leveler, buffer = simulator.leveler, simulator._buffer
    for page in pages:
        simulator.host_writes += 1
        if page in buffer:
            simulator.buffer_hits += 1
            continue
        if simulator.buffer_pages == 0:
            policy.flush(page, store.buffer_page(page))
            leveler.maybe_level(store)
            continue
        if len(buffer) >= simulator.buffer_pages:
            victim, origin = buffer.popitem(last=False)
            policy.flush(victim, origin)
            leveler.maybe_level(store)
        buffer[page] = store.buffer_page(page)


class TestWearPollGating:
    POLICIES = (GreedyPolicy, LocalityGatheringPolicy,
                lambda: HybridPolicy(partition_segments=4))

    def pair(self, policy_index, buffer_pages, threshold, cooldown):
        pair = []
        for _ in range(2):
            simulator = PolicySimulator(self.POLICIES[policy_index](),
                                        num_segments=8, pages_per_segment=16,
                                        buffer_pages=buffer_pages)
            simulator.leveler = WearLeveler(threshold, cooldown)
            pair.append(simulator)
        return pair

    @staticmethod
    def end_state(simulator):
        store = simulator.store
        return (simulator.result(), simulator.leveler.swap_count,
                store.page_location, store.phys_erase_counts,
                [(p.slots, p.phys, sorted(p.demoted))
                 for p in store.positions])

    @given(policy_index=st.integers(0, 2),
           buffer_pages=st.sampled_from([0, 4]),
           threshold=st.integers(1, 3),
           cooldown=st.sampled_from([0, 1, 16]),
           hot_pages=st.integers(1, 12),
           count=st.integers(200, 1200),
           seed=st.integers(0, 2 ** 16))
    # Locality flush onto a position still solid after its clean: the
    # forced shed freed no slot and the append raised (both simulators).
    @example(policy_index=1, buffer_pages=4, threshold=1, cooldown=16,
             hot_pages=1, count=983, seed=1)
    @settings(max_examples=40, **COMMON)
    def test_gated_polls_equal_polling_every_flush(
            self, policy_index, buffer_pages, threshold, cooldown,
            hot_pages, count, seed):
        gated, reference = self.pair(policy_index, buffer_pages, threshold,
                                     cooldown)
        live = gated.store.num_logical_pages
        rng = random.Random(seed)
        # A small hot set wears a few segments fast, so swaps fire.
        pages = [rng.randrange(hot_pages) if rng.random() < 0.9
                 else rng.randrange(live) for _ in range(count)]
        split = count // 3
        gated._replay(iter(pages[:split]))
        gated._replay(iter(pages[split:]))
        _poll_every_flush(reference, pages)
        assert self.end_state(gated) == self.end_state(reference)
        gated.store.check_invariants()

    @pytest.mark.parametrize("cooldown", [0, 1, 16])
    def test_swaps_fire_under_every_cooldown(self, cooldown):
        """Non-vacuity for the property above, including the cooldown-0
        case where a poll right after a swap may swap again."""
        gated, reference = self.pair(1, 0, 1, cooldown)
        rng = random.Random(9)
        pages = [rng.randrange(6) for _ in range(3000)]
        gated._replay(iter(pages))
        _poll_every_flush(reference, pages)
        assert gated.leveler.swap_count > 3
        assert self.end_state(gated) == self.end_state(reference)


class TestControllerProperties:
    @given(operations=st.lists(
        st.tuples(st.integers(0, 2000), st.binary(min_size=1, max_size=24)),
        min_size=1, max_size=120),
        power_cycles=st.booleans())
    @settings(max_examples=25, **COMMON)
    def test_read_your_writes(self, operations, power_cycles):
        """The controller agrees with a plain bytearray shadow model."""
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=16))
        shadow = bytearray(system.size_bytes)
        for address, data in operations:
            address = address % (system.size_bytes - len(data))
            system.write(address, data)
            shadow[address:address + len(data)] = data
        if power_cycles:
            system.power_cycle()
        for address, data in operations:
            address = address % (system.size_bytes - len(data))
            assert system.read(address, len(data)) == \
                bytes(shadow[address:address + len(data)])
        system.check_consistency()


class TestCrashRecoveryProperties:
    @given(operations=st.lists(
        st.tuples(st.integers(0, 2000), st.binary(min_size=1, max_size=8)),
        min_size=20, max_size=150),
        crash_schedule=st.lists(st.integers(1, 25), min_size=1,
                                max_size=5),
        policy_index=st.integers(0, 1))
    @settings(max_examples=20, **COMMON)
    def test_no_committed_byte_lost_at_any_crash_point(
            self, operations, crash_schedule, policy_index):
        """Crash at arbitrary Flash operations; recovery keeps every
        committed write readable."""
        from repro.core.chaos import KillSwitch
        from repro.core.recovery import (SimulatedPowerFailure,
                                         attach_journal, recover)

        policy = ("greedy", "hybrid")[policy_index]
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=16,
                                             cleaning_policy=policy))
        journal = attach_journal(system)
        injector = KillSwitch(system.array)
        # Align writes to 8-byte slots so each is single-page atomic;
        # a crashed multi-page write may legitimately half-commit, which
        # is the application's problem (transactions), not recovery's.
        slots = (system.size_bytes - 8) // 8
        shadow = {}
        committed = []
        schedule = list(crash_schedule)
        injector.arm(schedule.pop(0))
        for slot, data in operations:
            address = (slot % slots) * 8
            try:
                system.write(address, data)
                shadow[address] = True
                committed.append((address, data))
            except SimulatedPowerFailure:
                recover(system, journal)
                if schedule:
                    injector.arm(schedule.pop(0))
        injector.disarm()
        recover(system, journal)
        system.check_consistency()
        # Replay the committed log for the exact expected final state.
        expected = bytearray(system.size_bytes)
        for address, data in committed:
            expected[address:address + len(data)] = data
        for address in shadow:
            assert system.read(address, 8) == \
                bytes(expected[address:address + 8])


class TestBTreeProperties:
    @given(num_keys=st.integers(1, 3000), fanout=st.integers(3, 32),
           probes=st.lists(st.integers(0, 10 ** 6), max_size=30))
    @settings(max_examples=25, **COMMON)
    def test_tree_agrees_with_dict(self, num_keys, fanout, probes):
        class Ram:
            def __init__(self):
                self.data = bytearray(1 << 20)

            def read(self, address, length):
                return bytes(self.data[address:address + length])

            def write(self, address, data):
                self.data[address:address + len(data)] = data

        entries = {key: (key * 7919) % 2 ** 40 - 2 ** 39
                   for key in range(num_keys)}
        geometry = BTreeGeometry(64, num_keys, fanout)
        tree = BTree.bulk_load(Ram(), geometry, entries.__getitem__)
        for key in {0, num_keys - 1, num_keys // 2, *probes}:
            assert tree.search(key) == entries.get(key)


class TestBlockDeviceProperties:
    @given(script=st.lists(
        st.tuples(st.sampled_from(["write", "power_cycle"]),
                  st.integers(0, 4),
                  st.binary(min_size=1, max_size=512)),
        min_size=1, max_size=15))
    @settings(max_examples=15, **COMMON)
    def test_block_device_agrees_with_dict(self, script):
        """Sectors written through the RAM-disk path survive power
        cycles and a reopened device."""
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=64))
        device = BlockDevice(system, block_bytes=512)
        model = {}
        for action, block, payload in script:
            if action == "write":
                sector = payload.ljust(512, b"\x00")
                device.write_block(block, sector)
                model[block] = sector
            else:
                system.power_cycle()
                device = BlockDevice(system, block_bytes=512)
        for block, sector in model.items():
            assert device.read_block(block) == sector


#: Characters the ``name:key=value`` grammar gives meaning to, plus the
#: spellings ``_coerce`` turns into numbers and booleans.
SPEC_CHARS = ":=,. \t-+_/0123456789eEfnaiorstuxy"
SPEC_TOKENS = st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e400",
                               "9" * 400, "true", "off", "0x10", "1_0",
                               "file", "path=", "=", ":", ","])


class TestSpecGrammar:
    @given(spec=st.one_of(
        st.text(),
        st.text(alphabet=SPEC_CHARS),
        st.lists(st.one_of(SPEC_TOKENS, st.text(alphabet=SPEC_CHARS,
                                                max_size=3)),
                 max_size=12).map("".join)))
    @example(spec="file:path=relative.img")
    @example(spec="a:b=" + "9" * 5000)
    @example(spec=" :=,=")
    @settings(max_examples=300, **COMMON)
    def test_parses_to_finite_options_or_refuses(self, spec):
        """Any text is a spec with typed, finite option values, or a
        :class:`RegistryError` (parsing creates nothing: no backend is
        built, so a ``file:`` spec touches no file)."""
        try:
            name, options = parse_spec(spec)
        except RegistryError:
            return
        assert isinstance(name, str) and ":" not in name
        for key, value in options.items():
            assert isinstance(key, str)
            assert type(value) in (bool, int, float, str)
            assert not isinstance(value, float) or math.isfinite(value)


def reference_partition(service, requests, rid_base):
    """Per-row model of :meth:`EnvyService.partition` outside a run,
    built only from ``route``, ``placements`` and ``read_groups``: the
    slices, the rid slices and the expansion counters."""
    router = service.router
    states = [service.bank_state(bank) for bank in range(router.num_shards)]
    parity = isinstance(router.policy, ParityPolicy)
    pseudo = len(service.tenants)
    slices = [[] for _ in states]
    rids = [[] for _ in states]
    counters = dict.fromkeys(("degraded_reads", "degraded_writes",
                              "replica_accesses", "rebuild_accesses"), 0)
    for rid, (arrival, tenant, seq, is_write, page) in enumerate(
            requests, rid_base):
        if is_write:
            placements = router.placements(page)
            (primary_bank, primary_local), live = placements[0], [
                slot for slot in placements if states[slot[0]] != "dead"]
            if not live:
                raise DegradedModeError(f"page {page}: no live placement")
            rows = []
            if states[primary_bank] == "dead":
                counters["degraded_writes"] += 1
            parity_bank = placements[-1][0]
            if parity and states[parity_bank] != "dead":
                # Read-modify-write on two healthy banks, else
                # reconstruct-write from the rest of the stripe.
                folded = (placements if states[primary_bank] ==
                          states[parity_bank] == "healthy" else
                          [(peer, primary_local)
                           for peer in range(len(states))
                           if peer not in (primary_bank, parity_bank)])
                if any(states[bank] != "healthy" for bank, _ in folded):
                    raise DegradedModeError(f"page {page}: no fold")
                rows += [(slot, pseudo, False) for slot in folded]
            rows += [(live[0], tenant, True)]
            rows += [(slot, pseudo, True) for slot in live[1:]]
        elif states[router.route(page)[0]] == "healthy":
            rows = [(router.route(page), tenant, False)]
        else:
            group = next((group for group in router.read_groups(page)
                          if all(states[bank] == "healthy"
                                 for bank, _ in group)), None)
            if group is None:
                raise DegradedModeError(f"page {page}: no fallback group")
            counters["degraded_reads"] += 1
            rows = [(group[0], tenant, False)]
            rows += [(slot, pseudo, False) for slot in group[1:]]
        counters["replica_accesses"] += sum(row[1] == pseudo for row in rows)
        for (bank, local), row_tenant, write in rows:
            slices[bank].append((arrival, row_tenant, seq, write, local))
            rids[bank].append(rid)
    return slices, rids, counters


#: ``(redundancy, placement)`` for every routing the service builds:
#: plain striping, ranged placement, 2- and 3-way mirrors and parity
#: stripes.  Every router swaps.
ROUTINGS = [
    (redundancy, placement)
    for redundancy in ("none", "mirror", "mirror:3", "parity")
    for placement in ("striped", "ranged")
    if (redundancy, placement) != ("parity", "ranged")]


class TestPartitionProperties:
    @given(st.sampled_from(ROUTINGS), st.data())
    @settings(max_examples=120, **COMMON)
    def test_table_partition_matches_per_row_reference(self, routing,
                                                       data):
        """The slot-table loop routes, expands and threads rids exactly
        as a per-row walk of the router does, for every router, bank
        state and remap; the table follows every ``swap``."""
        redundancy, placement = routing
        service = EnvyService(
            ServiceConfig(num_shards=4, num_segments=4, pages_per_segment=16,
                          redundancy=redundancy, placement=placement),
            [TenantSpec("a"), TenantSpec("b")])
        router = service.router
        pages = st.integers(0, router.num_pages - 1)
        banks, locals_ = router.slot_table()
        for a, b in data.draw(st.lists(st.tuples(pages, pages),
                                       max_size=6), label="swaps"):
            router.swap(a, b)
            for page in (a, b):
                assert (banks[page], locals_[page]) == router.route(page)
        assert list(zip(banks, locals_)) == [
            router.route(page) for page in range(router.num_pages)]
        sick = (["dead"] if redundancy == "none"
                else ["dead", "rebuilding"])
        for bank, state in enumerate(data.draw(st.lists(
                st.sampled_from(["healthy"] * 2 + sick), min_size=4,
                max_size=4), label="bank states")):
            if state != "healthy":
                service.kill_bank(bank)
            if state == "rebuilding":
                service.replace_bank(bank)
        self.check(service, data, st.lists(st.tuples(
            st.integers(0, 10 ** 6), st.integers(0, 1), st.integers(0, 99),
            st.booleans(), pages), max_size=40))

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=30, **COMMON)
    def test_parity_writes_beside_a_rebuilding_bank(self, rebuilding, data):
        """Parity, one bank rebuilding, none dead, and writes whose data or
        parity bank is the rebuilding one: they fold from the healthy
        rest of the stripe, never read-modify-write on the rebuilding
        bank (a class the draws above seldom reach)."""
        service = EnvyService(
            ServiceConfig(num_shards=4, num_segments=4, pages_per_segment=16,
                          redundancy="parity"),
            [TenantSpec("a"), TenantSpec("b")])
        service.kill_bank(rebuilding)
        service.replace_bank(rebuilding)
        router = service.router
        touched = [page for page in range(router.num_pages)
                   if rebuilding in (router.placements(page)[0][0],
                                     router.placements(page)[-1][0])]
        self.check(service, data, st.lists(st.tuples(
            st.integers(0, 10 ** 6), st.integers(0, 1), st.integers(0, 99),
            st.just(True), st.sampled_from(touched)), min_size=1,
            max_size=20))

    @staticmethod
    def check(service, data, request_lists):
        """``partition`` of requests drawn from ``request_lists`` (rids on
        or off) matches :func:`reference_partition`, refusals included."""
        requests = data.draw(request_lists, label="requests")
        with_rids = data.draw(st.booleans(), label="with_rids")
        rid_base = data.draw(st.integers(0, 10 ** 4), label="rid_base")
        try:
            slices, rids, counters = reference_partition(service, requests,
                                                         rid_base)
        except DegradedModeError:
            with pytest.raises(DegradedModeError):
                service.partition(requests, with_rids, rid_base)
            return
        assert service.partition(requests, with_rids, rid_base) == slices
        assert service._last_rids == (rids if with_rids else None)
        assert service._last_expansion == counters


BANK_STATES = st.lists(st.sampled_from(["healthy"] * 2 + ["dead",
                                                          "rebuilding"]),
                       min_size=4, max_size=4)


class TestPathAgreement:
    @given(st.sampled_from(ROUTINGS), BANK_STATES,
           st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 6)),
                    min_size=1, max_size=12))
    # Parity with a rebuilding bank: writes whose data or parity bank
    # rebuilds fold the rest of the stripe; with a dead bank beside it,
    # a write that needs the rebuilding peer is refused on both paths.
    @example(("parity", "striped"),
             ["healthy", "rebuilding", "healthy", "healthy"],
             [(True, page) for page in range(6)] + [(False, 0)])
    @example(("parity", "striped"),
             ["dead", "rebuilding", "healthy", "healthy"],
             [(True, page) for page in range(9)] + [(False, 3)])
    @example(("mirror:3", "ranged"),
             ["dead", "rebuilding", "healthy", "healthy"],
             [(True, 0), (False, 0), (False, 40)])
    @settings(max_examples=60, **COMMON)
    def test_direct_access_makes_the_flash_ops_partition_charges(
            self, routing, states, ops):
        """A whole-page ``write_page`` / ``read_page`` reads and programs
        exactly the per-bank slots of the rows ``partition`` emits for
        the same request, and the two paths refuse together."""
        redundancy, placement = routing
        config = ServiceConfig(num_shards=4, num_segments=4,
                               pages_per_segment=16, store_data=True,
                               prewarm_turnovers=0.0,
                               redundancy=redundancy, placement=placement)
        service = EnvyService(config, [TenantSpec("a")])
        for bank, state in enumerate(states):
            if state != "healthy":
                service.kill_bank(bank)
            if state == "rebuilding" and redundancy != "none":
                service.replace_bank(bank)
        page_bytes = config.page_bytes
        flash = []
        for bank in range(4):
            if service.bank_state(bank) != "dead":
                service.shard(bank).access_listeners.append(
                    lambda kind, address, data, ns, count, bank=bank:
                    flash.append((bank, kind == "w", address // page_bytes)))
        for is_write, page in ops:
            page %= service.router.num_pages
            try:
                slices = service.partition([(0, 0, 0, is_write, page)])
            except DegradedModeError:
                charged = None
            else:
                charged = sorted((bank, row[3], row[4])
                                 for bank, rows in enumerate(slices)
                                 for row in rows)
            flash.clear()
            try:
                if is_write:
                    service.write_page(page, bytes([page % 251]) * page_bytes)
                else:
                    service.read_page(page)
            except DegradedModeError:
                assert charged is None and flash == []
            else:
                assert sorted(flash) == charged
