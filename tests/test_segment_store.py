"""Tests for the SegmentStore state machine behind the cleaning policies."""

import random

import pytest

from repro.cleaning import IN_BUFFER, SegmentStore, StoreError, make_policy


def make_store(positions=4, pages=8, logical=None):
    logical = logical if logical is not None else positions * pages * 3 // 4
    return SegmentStore(positions, pages, logical)


class TestPopulate:
    def test_sequential_fills_in_order(self):
        store = make_store(4, 8, logical=20)
        store.populate_sequential()
        assert [p.live_count for p in store.positions] == [8, 8, 4, 0]
        assert store.page_location[0] == (0, 0)
        assert store.page_location[19] == (2, 3)

    def test_contiguous_spreads_evenly(self):
        store = make_store(4, 8, logical=22)
        store.populate_contiguous()
        assert [p.live_count for p in store.positions] == [6, 6, 5, 5]
        # Pages of one position are contiguous in logical space.
        assert store.page_location[0][0] == 0
        assert store.page_location[5][0] == 0
        assert store.page_location[6][0] == 1

    def test_cannot_populate_twice(self):
        store = make_store()
        store.populate_sequential()
        with pytest.raises(StoreError):
            store.populate_contiguous()

    def test_populate_counts_no_flushes(self):
        store = make_store()
        store.populate_sequential()
        assert store.flush_count == 0
        assert store.clean_copy_count == 0


class TestAppendInvalidate:
    def test_append_invalidates_old_copy(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()  # all in position 0
        store.append(1, 3)
        assert store.page_location[3] == (1, 0)
        assert store.positions[0].live_count == 7
        assert store.positions[0].dead_slots == 1
        assert store.positions[1].live_count == 1

    def test_append_to_full_position_raises(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        with pytest.raises(StoreError):
            store.append(0, 0)

    def test_buffer_page_returns_origin(self):
        store = make_store(4, 8, logical=10)
        store.populate_sequential()
        assert store.buffer_page(9) == 1
        assert store.page_location[9] == IN_BUFFER
        assert store.positions[1].live_count == 1

    def test_flush_counter(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        store.buffer_page(0)
        store.append(1, 0)
        assert store.flush_count == 1


class TestClean:
    def test_clean_compacts_live_pages_in_order(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        for page in (1, 3, 5):
            store.buffer_page(page)
            store.append(1, page)
        copies = store.clean(0)
        assert copies == 5
        pos = store.positions[0]
        assert pos.slots == [0, 2, 4, 6, 7]
        assert pos.live_count == 5
        assert pos.free_slots == 3
        assert store.page_location[4] == (0, 2)

    def test_clean_rotates_physical_segments(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        old_phys = store.positions[0].phys
        store.clean(0)
        assert store.positions[0].phys == 4  # the old spare
        assert store.spare_phys == old_phys
        assert store.phys_erase_counts[old_phys] == 1
        assert store.erase_count == 1

    def test_clean_counts_copies(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        store.clean(0)
        assert store.clean_copy_count == 8

    def test_clean_updates_statistics(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        store.buffer_page(0)
        store.append(1, 0)
        store.clean(0)
        pos = store.positions[0]
        assert pos.clean_count == 1
        assert pos.last_clean_utilization == pytest.approx(7 / 8)
        assert pos.product is not None and pos.product > 0

    def test_clean_with_prepend_places_pages_at_head(self):
        store = make_store(4, 8, logical=12)
        store.populate_sequential()  # pos 0: pages 0-7, pos 1: pages 8-11
        moved = store.pop_live(0, from_end=False)  # page 0
        copies = store.clean(1, prepend=[moved])
        assert copies == 4
        pos1 = store.positions[1]
        assert pos1.slots == [0, 8, 9, 10, 11]
        assert store.page_location[0] == (1, 0)
        assert pos1.live_count == 5
        assert store.transfer_count == 1

    def test_prepend_overflow_rejected(self):
        store = make_store(4, 8, logical=16)
        store.populate_sequential()
        pages = [store.pop_live(1, from_end=False) for _ in range(2)]
        with pytest.raises(StoreError):
            # position 0 is full with 8 live pages; no room to prepend.
            store.clean(0, prepend=pages)


class TestPopLiveReceive:
    def test_pop_from_end_returns_hottest(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        assert store.pop_live(0, from_end=True) == 7
        assert store.pop_live(0, from_end=False) == 0

    def test_pop_skips_dead_slots(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        store.buffer_page(7)  # kill the tail page
        assert store.pop_live(0, from_end=True) == 6

    def test_pop_empty_returns_none(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        assert store.pop_live(2, from_end=True) is None

    def test_receive_appends_and_counts_transfer(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        page = store.pop_live(0, from_end=True)
        store.receive(1, page)
        assert store.page_location[page] == (1, 0)
        assert store.transfer_count == 1
        assert store.clean_copy_count == 1
        assert store.flush_count == 0

    def test_receive_into_full_raises(self):
        store = make_store(4, 8, logical=16)
        store.populate_sequential()
        page = store.pop_live(1, from_end=True)
        with pytest.raises(StoreError):
            store.receive(0, page)


class TestDemotion:
    def test_demoted_pages_move_to_head_on_clean(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        page = store.pop_live(0, from_end=False)  # page 0
        store.receive(1, page, demote=True)
        store.append(1, 99 % 8) if False else None
        store.clean(1)
        assert store.positions[1].slots[0] == page
        assert not store.positions[1].demoted

    def test_rewrite_cancels_demotion(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        page = store.pop_live(0, from_end=False)
        store.receive(1, page, demote=True)
        # The page is rewritten by the host: buffered, then flushed back.
        store.buffer_page(page)
        store.append(1, page)
        store.clean(1)
        # It stays in tail order instead of being re-homed at the head.
        assert store.positions[1].slots == [page]

    def test_pop_discards_demotion_mark(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        page = store.pop_live(0, from_end=False)
        store.receive(1, page, demote=True)
        assert store.pop_live(1, from_end=True) == page
        assert page not in store.positions[1].demoted


class TestObserver:
    def test_observer_sees_all_events(self):
        events = []
        store = SegmentStore(4, 8, 8, observer=lambda *a: events.append(a))
        store.populate_sequential()
        assert events == []  # population is not observable work
        store.buffer_page(0)
        store.append(1, 0)
        store.clean(0)
        kinds = [e[0] for e in events]
        assert kinds == ["program", "clean_copy", "erase"]
        assert events[1][2] == 7  # copies


class TestMetricsAndInvariants:
    def test_cleaning_cost_ratio(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        store.buffer_page(0)
        store.append(1, 0)
        store.clean(0)
        assert store.cleaning_cost() == pytest.approx(7.0)

    def test_reset_counters(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        store.clean(0)
        store.reset_counters()
        assert store.cleaning_cost() == 0.0
        assert store.erase_count == 0

    def test_utilization_counts_spare(self):
        store = make_store(4, 8, logical=16)
        store.populate_sequential()
        # 16 live pages over (4+1) x 8 = 40 physical pages.
        assert store.utilization() == pytest.approx(0.4)

    def test_check_invariants_passes_on_valid_store(self):
        store = make_store(4, 8, logical=16)
        store.populate_sequential()
        store.buffer_page(3)
        store.append(2, 3)
        store.clean(0)
        store.check_invariants()

    def test_check_invariants_detects_corruption(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        store.positions[0].live_count -= 1
        with pytest.raises(StoreError):
            store.check_invariants()

    def test_wear_spread(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()
        store.clean(0)
        assert store.wear_spread() == 1

    def test_rejects_overcommitted_store(self):
        with pytest.raises(ValueError):
            SegmentStore(2, 4, 9)

    def test_rejects_single_position(self):
        with pytest.raises(ValueError):
            SegmentStore(1, 4, 2)


class TestCopyListeners:
    """Several consumers can watch relocations at once.

    ``copy_listeners`` is a plain list: ``append`` subscribes, ``remove``
    unsubscribes, and every subscriber fires, in registration order, for
    every physically relocated live copy.
    """

    def make_watched_store(self):
        store = make_store(4, 8, logical=8)
        store.populate_sequential()  # all live pages in position 0
        events = []
        store.copy_listeners.append(
            lambda page: events.append(("cache", page)))
        store.copy_listeners.append(
            lambda page: events.append(("trace", page)))
        return store, events

    def test_clean_notifies_every_listener_per_page(self):
        store, events = self.make_watched_store()
        copied = store.clean(0)
        assert copied == 8
        assert len(events) == 16
        cache = [page for kind, page in events if kind == "cache"]
        trace = [page for kind, page in events if kind == "trace"]
        assert cache == trace == list(range(8))

    def test_listeners_fire_in_registration_order_for_each_page(self):
        store, events = self.make_watched_store()
        store.clean(0)
        for first, second in zip(events[::2], events[1::2]):
            assert first[0] == "cache"
            assert second[0] == "trace"
            assert first[1] == second[1]

    def test_receive_notifies_all_listeners(self):
        store, events = self.make_watched_store()
        page = store.pop_live(0, from_end=True)
        del events[:]
        store.receive(1, page)
        assert events == [("cache", page), ("trace", page)]

    def test_unsubscribing_one_listener_leaves_the_others(self):
        # A replay that subscribes and unsubscribes its own listener
        # (the shard executor's cache tier) must not disturb
        # independently registered ones, and can come back afterwards.
        store, events = self.make_watched_store()
        cache_listener = store.copy_listeners[0]
        store.copy_listeners.remove(cache_listener)
        store.clean(0)
        assert all(kind == "trace" for kind, _ in events)
        assert len(events) == 8
        store.copy_listeners.append(cache_listener)
        del events[:]
        store.clean(0)
        assert [kind for kind, _ in events[:2]] == ["trace", "cache"]

    def test_remove_copy_listener(self):
        store, events = self.make_watched_store()
        store.copy_listeners.remove(store.copy_listeners[1])
        store.clean(0)
        assert all(kind == "cache" for kind, _ in events)
        with pytest.raises(ValueError):
            store.copy_listeners.remove(print)  # never subscribed

    def test_flush_does_not_notify(self):
        # Listeners watch *relocations* (cleaner copies), not host
        # writes landing from the buffer.
        store, events = self.make_watched_store()
        store.buffer_page(0)
        store.append(1, 0)
        assert events == []


class MirrorStore(SegmentStore):
    """Tracks which slots hold a valid Flash copy, BoundStore-style: only
    through the documented override points, never by reading liveness."""

    def __init__(self, *args):
        super().__init__(*args)
        self.valid = [[] for _ in range(self.num_positions)]
        self.kills = []

    def _kill(self, loc):
        position, slot = loc
        assert self.valid[position][slot], f"double kill at {loc}"
        self.valid[position][slot] = False
        self.kills.append(loc)
        super()._kill(loc)

    def append(self, pos_index, logical_page, count_as_flush=True):
        super().append(pos_index, logical_page, count_as_flush)
        self.valid[pos_index].append(True)

    def receive(self, pos_index, logical_page, demote=False):
        super().receive(pos_index, logical_page, demote)
        self.valid[pos_index].append(True)

    def pop_live(self, pos_index, from_end):
        page = super().pop_live(pos_index, from_end)
        if page is not None:
            slots = self.positions[pos_index].slots
            order = reversed(range(len(slots))) if from_end \
                else range(len(slots))
            slot = next(s for s in order if self.valid[pos_index][s])
            assert slots[slot] == page
            self.valid[pos_index][slot] = False
        return page

    def clean(self, pos_index, prepend=None):
        # Every superseded copy must have been announced by now.
        assert sum(self.valid[pos_index]) == \
            self.positions[pos_index].live_count
        copies = super().clean(pos_index, prepend)
        self.valid[pos_index] = [True] * len(self.positions[pos_index].slots)
        return copies

    def assert_mirror_matches(self):
        for pos in self.positions:
            assert self.valid[pos.index] == [
                self.is_live_slot(pos.index, slot)
                for slot in range(len(pos.slots))]


class TestOverridePoints:
    """The base class and the policies reach ``_kill``/``append``/
    ``buffer_page``/``pop_live``/``receive``/``clean`` only by dispatch,
    so a mirroring subclass hears of every superseded Flash copy once."""

    def make_mirror(self, layout="populate_sequential"):
        store = MirrorStore(8, 16, 96)
        getattr(store, layout)()
        return store

    def test_buffer_page_kills_the_flash_copy_once(self):
        store = self.make_mirror()
        old = store.page_location[5]
        store.buffer_page(5)
        assert store.kills == [old]
        store.buffer_page(5)  # already in SRAM: nothing to supersede
        assert store.kills == [old]
        store.append(7, 5)    # flushing a buffered page kills nothing
        assert store.kills == [old]
        store.assert_mirror_matches()

    def test_reappend_kills_the_old_copy_once(self):
        store = self.make_mirror()
        old = store.page_location[5]
        store.append(7, 5)
        assert store.kills == [old]
        store.append(7, 5)
        assert store.kills == [old, (7, 0)]
        store.assert_mirror_matches()

    @pytest.mark.parametrize("name,kwargs,layout", [
        ("greedy", {}, "populate_sequential"),
        ("fifo", {}, "populate_sequential"),
        ("locality", {}, "populate_contiguous"),
        ("hybrid", {"partition_segments": 2}, "populate_contiguous"),
    ])
    def test_policy_paths_announce_every_superseded_copy(self, name, kwargs,
                                                         layout):
        store = self.make_mirror(layout)
        policy = make_policy(name, **kwargs)
        policy.attach(store)
        rng = random.Random(17)
        writes = 1500
        for _ in range(writes):
            # 10/90-style skew so locality/hybrid actually transfer.
            page = (rng.randrange(10) if rng.random() < 0.9
                    else rng.randrange(10, 96))
            origin = store.buffer_page(page)
            policy.flush(page, origin)
        # One kill per host write (each superseded exactly one Flash
        # copy); cleans and transfers relocate without killing.
        assert len(store.kills) == writes
        assert store.erase_count > 0
        if name in ("locality", "hybrid"):
            assert store.transfer_count > 0
        store.assert_mirror_matches()
        store.check_invariants()
