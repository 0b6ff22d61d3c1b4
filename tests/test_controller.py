"""Tests for the eNVy controller: the linear non-volatile memory API."""

import collections
import random

import pytest

from repro.cleaning import make_policy
from repro.core import EnvyConfig, EnvySystem
from repro.obs.events import HOST_READ
from repro.obs.hist import LatencyHistogram


def small_system(policy="hybrid", segments=8, pages=32, **overrides):
    config = EnvyConfig.small(num_segments=segments,
                              pages_per_segment=pages,
                              cleaning_policy=policy, **overrides)
    return EnvySystem(config)


@pytest.fixture
def system():
    return small_system()


class TestBasicReadWrite:
    def test_fresh_memory_reads_zero(self, system):
        assert system.read(0, 16) == bytes(16)
        assert system.read(system.size_bytes - 4, 4) == bytes(4)

    def test_write_then_read(self, system):
        system.write(10, b"abcdef")
        assert system.read(10, 6) == b"abcdef"

    def test_write_spanning_pages(self, system):
        page = system.config.page_bytes
        data = bytes(range(256))[: page // 2] * 3
        system.write(page - 100, data)
        assert system.read(page - 100, len(data)) == data

    def test_partial_page_write_preserves_rest(self, system):
        system.write(0, bytes([0xAA]) * 64)
        system.write(16, b"\x55\x55")
        expected = bytearray([0xAA]) * 64
        expected[16:18] = b"\x55\x55"
        assert system.read(0, 64) == bytes(expected)

    def test_out_of_range_rejected(self, system):
        with pytest.raises(IndexError):
            system.read(system.size_bytes, 1)
        with pytest.raises(IndexError):
            system.write(system.size_bytes - 2, b"abc")
        with pytest.raises(IndexError):
            system.read(-1, 1)

    def test_zero_length_read(self, system):
        assert system.read(5, 0) == b""


class TestLatencyModel:
    def test_flash_read_is_160ns(self, system):
        # 60 ns bus overhead + 100 ns Flash access (Section 5.1); the
        # first access pays an MMU miss on top.
        system.read(0, 4)
        _, ns = system.read_timed(0, 4)
        assert ns == 160

    def test_mmu_miss_adds_table_read(self, system):
        _, ns = system.read_timed(4096, 4)
        assert ns == 260  # 60 + 100 page table + 100 flash

    def test_buffered_write_is_160ns(self, system):
        system.write(0, b"x")  # copy-on-write brings the page to SRAM
        ns = system.write(1, b"y")  # same page: plain SRAM update
        assert ns == 160

    def test_copy_on_write_is_260ns(self, system):
        system.read(0, 1)  # warm the MMU entry
        ns = system.write(0, b"x")
        assert ns == 260  # 60 + 100 wide copy + 100 SRAM write

    def test_buffered_read_costs_sram_latency(self, system):
        system.write(0, b"x")
        _, ns = system.read_timed(0, 1)
        assert ns == 160


class TestCopyOnWrite:
    def test_write_moves_page_to_buffer(self, system):
        page = 3
        address = page * system.config.page_bytes
        system.write(address, b"data")
        assert page in system.buffer
        location = system.page_table.lookup(page)
        assert location.in_sram

    def test_coalescing_no_second_cow(self, system):
        system.write(0, b"a")
        cows = system.metrics.copy_on_writes
        system.write(1, b"b")
        assert system.metrics.copy_on_writes == cows
        assert system.metrics.buffer_hits == 1

    def test_cow_preserves_unwritten_bytes(self, system):
        system.write(0, bytes([1] * system.config.page_bytes))
        system.drain()  # page back to flash
        system.write(5, b"\x09")  # copy-on-write again
        data = system.read(0, 10)
        assert data == bytes([1, 1, 1, 1, 1, 9, 1, 1, 1, 1])

    def test_flush_returns_page_to_flash(self, system):
        system.write(0, b"hello")
        system.drain()
        assert 0 not in system.buffer
        assert system.page_table.lookup(0).in_flash
        assert system.read(0, 5) == b"hello"


class TestBackgroundWork:
    def test_background_work_respects_threshold(self, system):
        threshold = system.buffer.threshold_pages
        page_bytes = system.config.page_bytes
        for page in range(threshold + 3):
            system.write(page * page_bytes, b"x")
        # Work was done, and idle time is left over (a negative carry).
        carry = system.background_work(10 ** 12)
        assert -10 ** 12 < carry < 0
        assert not system.buffer.over_threshold

    def test_background_work_budget_limits(self, system):
        page_bytes = system.config.page_bytes
        for page in range(system.buffer.threshold_pages + 5):
            system.write(page * page_bytes, b"x")
        flushes = system.metrics.flushes
        carry = system.background_work(1)  # lets exactly one flush through
        assert system.metrics.flushes == flushes + 1
        assert carry >= system.config.flash.program_ns - 1

    def test_background_work_pays_the_overdraft_first(self, system):
        page_bytes = system.config.page_bytes
        for page in range(system.buffer.threshold_pages + 5):
            system.write(page * page_bytes, b"x")
        flushes = system.metrics.flushes
        # A gap shorter than the chain in flight starts nothing new.
        assert system.background_work(300, 1_000) == 700
        assert system.background_work(300, 300) == 0
        assert system.metrics.flushes == flushes
        # What the chain leaves of the gap goes to new flushes.
        assert system.background_work(300, 200) > 0
        assert system.metrics.flushes == flushes + 1

    def test_drain_empties_buffer(self, system):
        for page in range(5):
            system.write(page * system.config.page_bytes, b"x")
        system.drain()
        assert len(system.buffer) == 0


class TestDurability:
    def test_data_survives_cleaning_pressure(self):
        system = small_system(segments=8, pages=16)
        rng = random.Random(1)
        shadow = {}
        for _ in range(4000):
            address = rng.randrange(system.size_bytes - 8) & ~7
            value = rng.randrange(2 ** 32).to_bytes(8, "little")
            system.write(address, value)
            shadow[address] = value
        for address, value in shadow.items():
            assert system.read(address, 8) == value, hex(address)
        assert system.metrics.erases > 0  # cleaning actually happened
        system.check_consistency()

    def test_power_cycle_preserves_buffered_data(self, system):
        system.write(40, b"buffered!")
        system.power_cycle()
        assert system.read(40, 9) == b"buffered!"
        system.check_consistency()

    def test_power_cycle_preserves_flash_data(self, system):
        system.write(40, b"flushed!")
        system.drain()
        system.power_cycle()
        assert system.read(40, 8) == b"flushed!"

    def test_mmu_cache_lost_on_power_cycle(self, system):
        system.read(0, 1)
        system.power_cycle()
        _, ns = system.read_timed(0, 1)
        assert ns == 260  # cold MMU pays the page-table read again


class TestPolicies:
    @pytest.mark.parametrize("policy", ["greedy", "fifo", "locality",
                                        "hybrid"])
    def test_all_policies_preserve_data(self, policy):
        system = small_system(policy=policy)
        rng = random.Random(2)
        shadow = {}
        for _ in range(2500):
            address = rng.randrange(system.size_bytes - 4) & ~3
            value = rng.randrange(2 ** 16).to_bytes(4, "little")
            system.write(address, value)
            shadow[address] = value
        for address, value in shadow.items():
            assert system.read(address, 4) == value
        system.check_consistency()

    def test_explicit_policy_object(self):
        config = EnvyConfig.small(num_segments=8, pages_per_segment=32)
        system = EnvySystem(config, policy=make_policy("greedy"))
        assert system.policy.name == "greedy"


class TestMetrics:
    def test_counts_accumulate(self, system):
        system.write(0, b"ab")
        system.read(0, 2)
        assert system.metrics.writes == 1
        assert system.metrics.reads == 1
        assert system.metrics.copy_on_writes == 1

    def test_time_breakdown_covers_activities(self):
        system = small_system(segments=8, pages=16)
        rng = random.Random(3)
        for _ in range(3000):
            system.write(rng.randrange(system.size_bytes - 4), b"abcd")
        breakdown = system.metrics.time_breakdown()
        assert {"flush", "clean", "erase"} <= set(breakdown)
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_cleaning_cost_reported(self):
        system = small_system(segments=8, pages=16)
        rng = random.Random(4)
        for _ in range(3000):
            system.write(rng.randrange(system.size_bytes - 4), b"abcd")
        assert system.metrics.cleaning_cost > 0


class TestStatelessMode:
    def test_stateless_controller_tracks_placement_only(self):
        config = EnvyConfig.small(num_segments=8, pages_per_segment=32)
        system = EnvySystem(config, store_data=False)
        ns = system.write(0, b"data")
        assert ns > 0
        assert system.read(0, 4) == bytes(4)  # no payloads kept
        system.check_consistency()


# ----------------------------------------------------------------------
# read_run_ns(page): the one place a host page read is costed
# ----------------------------------------------------------------------

def reference_read_timed(system, address, length):
    """``read_timed`` as it stood before the priced read existed: the
    cost arithmetic, accounting and payload slicing in one loop.  Kept
    here as the reference the primitive is compared against."""
    if length < 0:
        raise ValueError("length cannot be negative")
    system._check_range(address, length)
    cfg = system.config
    page_bytes = cfg.page_bytes
    pieces, total_ns = [], 0
    offset, remaining = address, length
    metrics = system.metrics
    while remaining > 0:
        page, page_offset = divmod(offset, page_bytes)
        chunk = min(remaining, page_bytes - page_offset)
        location, translate_ns = system.mmu.translate_timed(page)
        access_ns = cfg.bus_overhead_ns + translate_ns
        if location is not None and location.in_sram:
            entry = system.buffer.peek(location.slot)
            payload = entry.data if entry is not None else None
            access_ns += cfg.sram.read_ns
        else:
            payload = (system.store.read_page_data(page)
                       if system.store_data else None)
            access_ns += system.array.read_time_ns() + system._ecc_check_ns
        pieces.append(bytes(chunk) if payload is None
                      else bytes(payload[page_offset:page_offset + chunk]))
        metrics.reads += 1
        metrics.read_latency.record(access_ns)
        metrics.charge("read", access_ns)
        if system.events.active:
            system.events.emit_span(HOST_READ, access_ns, {"page": page})
        total_ns += access_ns
        offset += chunk
        remaining -= chunk
    return b"".join(pieces), total_ns


class TestReadPageNs:
    @staticmethod
    def triplet(store_data):
        """Three identically driven controllers with a 4-entry MMU (so
        translations miss) and part of the array sitting in SRAM."""
        systems = []
        for _ in range(3):
            config = EnvyConfig.small(num_segments=8, pages_per_segment=32,
                                      cleaning_policy="hybrid")
            system = EnvySystem(config, store_data=store_data)
            system.mmu.capacity = 4
            rng = random.Random(17)
            for _ in range(400):
                address = rng.randrange(system.size_bytes - 8)
                system.write(address, bytes([rng.randrange(1, 256)]) * 8)
            systems.append(system)
        return systems

    @staticmethod
    def observed(system):
        metrics = system.metrics
        return (metrics.reads, metrics.read_latency.state_dict(),
                dict(metrics.busy_ns), system.mmu.hits, system.mmu.misses)

    @pytest.mark.parametrize("store_data", [True, False])
    def test_matches_reference_read_timed(self, store_data):
        reference, rewritten, paged = self.triplet(store_data)
        logs = []
        for system in (reference, rewritten, paged):
            log = []
            system.events.subscribe(
                lambda event, log=log: log.append(
                    (event.kind, event.t_ns, event.dur_ns,
                     dict(event.data))),
                prefix=HOST_READ)
            logs.append(log)
        assert any(page in reference.buffer for page in range(8 * 32))
        page_bytes = reference.config.page_bytes
        size = reference.size_bytes
        rng = random.Random(29)
        cases = [(0, 0), (size, 0), (size - 1, 1), (size - 8, 8),
                 (page_bytes - 3, 8), (page_bytes - 8, 8), (5, 0),
                 (page_bytes - 1, 2 * page_bytes + 2)]
        for _ in range(300):
            address = rng.randrange(size)
            length = rng.choice((0, 1, 8, 8, 8, 100, page_bytes,
                                 3 * page_bytes))
            cases.append((address, min(length, size - address)))
        for address, length in cases:
            expected, expected_ns = reference_read_timed(reference, address,
                                                         length)
            data, ns = rewritten.read_timed(address, length)
            assert (data, ns) == (expected, expected_ns)
            first = address // page_bytes
            last = (address + length - 1) // page_bytes
            paged_ns = sum(paged.read_run_ns(page)[0]
                           for page in range(first, last + 1)) \
                if length else 0
            assert paged_ns == expected_ns
        assert reference.metrics.reads > len(cases)   # straddles counted
        assert reference.mmu.misses > 100
        assert self.observed(rewritten) == self.observed(reference)
        assert self.observed(paged) == self.observed(reference)
        assert logs[0] and logs[1] == logs[0] and logs[2] == logs[0]

    def test_page_range_checked(self, system):
        num_pages = system.config.logical_pages
        first_ns, repeat_ns = system.read_run_ns(num_pages - 1)
        assert first_ns == repeat_ns > 0
        for page in (-1, num_pages):
            with pytest.raises(IndexError):
                system.read_run_ns(page)
        assert system.metrics.reads == 1

    def test_read_timed_checks_before_accounting(self, system):
        with pytest.raises(ValueError):
            system.read_timed(0, -1)
        with pytest.raises(IndexError):
            system.read_timed(system.size_bytes - 4, 8)
        assert system.metrics.reads == 0


# ----------------------------------------------------------------------
# read_run_ns: a run of reads of one page, priced once
# ----------------------------------------------------------------------

def per_read_spans(event):
    """The ``(t_ns, dur_ns, page)`` of every read a ``host.read`` event
    stands for: a counted span (a run's repeats) expands back into
    ``count`` equal back-to-back reads."""
    count = event.data.get("count", 1)
    each = event.dur_ns // count
    return [(event.t_ns + done * each, each, event.data["page"])
            for done in range(count)]


class TestReadRunNs:
    UNMAPPED = 7

    @staticmethod
    def twins():
        """Two identically driven controllers, part of the array in
        SRAM, one page unmapped (as a recovered controller can have)."""
        systems = []
        for _ in range(2):
            # The ECC check makes a Flash read dearer than an SRAM one.
            system = small_system(ecc_enabled=True, ecc_check_ns=30)
            system.mmu.capacity = 4
            rng = random.Random(23)
            for _ in range(300):
                address = rng.randrange(system.size_bytes - 8)
                system.write(address, b"\x01" * 8)
            system.page_table.entries[TestReadRunNs.UNMAPPED] = None
            system.mmu.flush()
            systems.append(system)
        return systems

    @staticmethod
    def observed(system):
        metrics = system.metrics
        return (metrics.reads, metrics.read_latency.state_dict(),
                dict(metrics.busy_ns), system.mmu.hits, system.mmu.misses,
                list(system.mmu._cache))

    @pytest.mark.parametrize("subscribed", [False, True])
    def test_equals_that_many_page_reads(self, subscribed):
        """A run of ``count`` leaves behind what ``count`` runs of one do."""
        reference, run = self.twins()
        logs = []
        for system in (reference, run):
            log = []
            if subscribed:
                system.events.subscribe(
                    lambda event, log=log: log.extend(
                        per_read_spans(event)),
                    prefix=HOST_READ)
            logs.append(log)
        num_pages = reference.config.logical_pages
        buffered = [page for page in range(num_pages)
                    if page in reference.buffer]
        in_flash = [page for page in range(num_pages)
                    if page not in reference.buffer
                    and page != self.UNMAPPED]
        assert buffered and in_flash
        rng = random.Random(31)
        kinds = set()
        for _ in range(400):
            page = rng.choice((rng.choice(buffered), rng.choice(in_flash),
                               rng.choice(in_flash), self.UNMAPPED))
            count = rng.choice((1, 1, 2, 3, 9))
            each = [reference.read_run_ns(page)[0] for _ in range(count)]
            first_ns, repeat_ns = run.read_run_ns(page, count)
            assert [first_ns] + [repeat_ns] * (count - 1) == each
            kinds.add((first_ns, repeat_ns))
            assert self.observed(run) == self.observed(reference)
        # SRAM and Flash pages with heads that hit and heads that
        # missed, and the unmapped page whose repeats miss again.
        assert kinds >= {(160, 160), (260, 160), (190, 190), (290, 190),
                         (290, 290)}
        assert logs[1] == logs[0] and bool(logs[0]) is subscribed

    @pytest.mark.parametrize("page, count, error", [
        (-1, 3, IndexError), (8 * 32, 1, IndexError),
        (0, 0, ValueError), (0, -2, ValueError), (-1, 0, ValueError),
        (3, 2.0, TypeError), (3, 2.5, TypeError), (3, 1.0, TypeError),
        (3, True, TypeError)])
    def test_checks_before_accounting(self, system, page, count, error):
        """A run counts whole reads: a float count once left
        ``metrics.reads`` a float and recorded 1.5 repeat samples."""
        with pytest.raises(error):
            system.read_run_ns(page, count)
        assert system.metrics.reads == 0
        assert system.mmu.hits == system.mmu.misses == 0
        assert system.metrics.busy_ns == {}
        assert system.metrics.read_latency.count == 0


class ReadPricingReference:
    """Section 5.1 read pricing from scratch: an exact LRU of
    ``mmu.capacity`` translations over the page table, and a host read
    costs the bus, one page-table read on a miss and one SRAM or
    Flash(+ECC) cycle.  Writes and flushes touch the LRU as the MMU's
    coherence does: a write translates its page, and a page whose
    mapping moves (copy-on-write, flush) becomes most recent if cached."""

    def __init__(self, system):
        config = system.config
        self.system, self.lru = system, collections.OrderedDict()
        self.hits = self.misses = self.busy = 0
        self.latency = LatencyHistogram()
        self.sram_ns = config.bus_overhead_ns + config.sram.read_ns
        self.flash_ns = (config.bus_overhead_ns + config.flash.read_ns
                         + config.ecc_check_ns)
        system.flush_listeners.append(lambda page, _: self.touch(page))

    def touch(self, page):
        if page in self.lru:
            self.lru.move_to_end(page)

    def translate(self, page):
        if page in self.lru:
            self.touch(page)
            self.hits += 1
            return 0
        self.misses += 1
        if self.system.page_table.lookup(page) is not None:
            self.lru[page] = None
            if len(self.lru) > self.system.mmu.capacity:
                self.lru.popitem(last=False)
        return self.system.page_table.read_ns

    def read_run(self, page, count):
        location = self.system.page_table.lookup(page)
        access = (self.sram_ns if location is not None and location.in_sram
                  else self.flash_ns)
        costs = [self.translate(page) + access for _ in range(count)]
        for ns in costs:
            self.latency.record(ns)
            self.busy += ns
        return costs[0], costs[-1]

    def write(self, page, data):
        self.translate(page)
        copied = page not in self.system.buffer
        self.system.write(page * self.system.config.page_bytes, data)
        if copied:
            self.touch(page)


class TestReadPricingReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_read_pricing_matches_the_reference(self, seed):
        """Random read runs, one-word writes and flushes: every read run
        prices, counts and accounts as the reference LRU says."""
        system = small_system(ecc_enabled=True, ecc_check_ns=30)
        system.mmu.capacity = 5
        unmapped = 40
        system.page_table.entries[unmapped] = None
        reference = ReadPricingReference(system)
        rng = random.Random(seed)
        num_pages = system.config.logical_pages
        kinds = set()
        for _ in range(1500):
            page = (rng.randrange(12) if rng.random() < 0.6
                    else rng.randrange(num_pages))
            roll = rng.random()
            if roll < 0.2 and page != unmapped:
                reference.write(page, bytes([rng.randrange(256)]) * 8)
                continue
            if roll < 0.3 and len(system.buffer):
                system.flush_one()
                continue
            count = rng.choice((1, 1, 2, 3, 7))
            priced = system.read_run_ns(page, count)
            assert priced == reference.read_run(page, count)
            kinds.add((count > 1, priced[0] == priced[1]))
            assert (system.mmu.hits, system.mmu.misses) == \
                (reference.hits, reference.misses)
            assert system.metrics.read_latency.state_dict() == \
                reference.latency.state_dict()
            assert system.metrics.busy_ns.get("read", 0) == reference.busy
        # Runs whose head missed and hit, and single reads.
        assert kinds == {(False, True), (True, True), (True, False)}
