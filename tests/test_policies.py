"""Behavioural tests for the four cleaning policies (Section 4)."""

import dataclasses
import hashlib
import itertools

import pytest

from repro.cleaning import (FifoPolicy, GreedyPolicy, HybridPolicy,
                            LocalityGatheringPolicy, PolicySimulator,
                            SegmentStore, make_policy, measure_cleaning_cost)
from repro.workloads import BimodalWorkload, TraceWorkload, UniformWorkload

from .fidelity import LEDGER


def simulate(policy, label="50/50", segs=16, pages=64, writes_factor=4,
             buffer_pages=0, seed=7):
    sim = PolicySimulator(policy, num_segments=segs, pages_per_segment=pages,
                          utilization=0.8, buffer_pages=buffer_pages)
    workload = BimodalWorkload.from_label(sim.store.num_logical_pages,
                                          label, seed=seed)
    live = sim.store.num_logical_pages
    sim.run(workload, live * writes_factor, warmup_writes=live * 2)
    return sim


class TestMakePolicy:
    def test_all_registered_names(self):
        for name, cls in (("greedy", GreedyPolicy), ("fifo", FifoPolicy),
                          ("locality", LocalityGatheringPolicy),
                          ("hybrid", HybridPolicy)):
            assert isinstance(make_policy(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("lru")

    def test_kwargs_forwarded(self):
        policy = make_policy("hybrid", partition_segments=4)
        assert policy.partition_segments == 4


class TestGreedy:
    def test_flush_goes_to_active_segment(self):
        store = SegmentStore(4, 8, 8)
        store.populate_sequential()
        policy = GreedyPolicy()
        policy.attach(store)
        store.buffer_page(0)
        written = policy.flush(0, origin=0)
        assert written == 1  # position 1 had free space and is active

    def test_victim_is_most_invalidated(self):
        store = SegmentStore(3, 4, 8)
        store.populate_sequential()
        policy = GreedyPolicy()
        policy.attach(store)
        # Kill 3 pages of position 0 and 1 page of position 1.
        for page in (0, 1, 2):
            store.buffer_page(page)
        store.buffer_page(4)
        # Fill the active position (2) so the next flush must clean.
        for page in (0, 1, 2, 4):
            policy.flush(page, origin=0)
        # Position 2 now full; cleaning picks position 0 (3 dead slots).
        store.buffer_page(0)
        written = policy.flush(0, origin=0)
        assert written == 0
        assert store.positions[0].clean_count == 1

    def test_unattached_flush_raises(self):
        with pytest.raises(RuntimeError):
            GreedyPolicy().flush(0, 0)

    def test_long_run_keeps_invariants(self):
        sim = simulate(GreedyPolicy())
        sim.store.check_invariants()

    def test_cost_rises_with_locality(self):
        uniform = measure_cleaning_cost(GreedyPolicy(), "50/50",
                                        num_segments=32,
                                        pages_per_segment=64,
                                        turnovers=3, warmup_turnovers=4)
        skewed = measure_cleaning_cost(GreedyPolicy(), "5/95",
                                       num_segments=32,
                                       pages_per_segment=64,
                                       turnovers=3, warmup_turnovers=4)
        # Section 4.2: "performance suffers as the locality of reference
        # is increased".
        assert skewed.cleaning_cost > uniform.cleaning_cost


class TestFifo:
    def test_cleans_in_cyclic_order(self):
        sim = simulate(FifoPolicy(), segs=8, pages=32)
        cleans = [p.clean_count for p in sim.store.positions]
        # Round-robin: no segment cleaned wildly more than another.
        assert max(cleans) - min(cleans) <= 2

    def test_cost_close_to_greedy(self):
        # Section 4.4: FIFO "produces the same cleaning cost" as greedy.
        fifo = measure_cleaning_cost(FifoPolicy(), "50/50", num_segments=32,
                                     pages_per_segment=64, turnovers=3,
                                     warmup_turnovers=4)
        greedy = measure_cleaning_cost(GreedyPolicy(), "50/50",
                                       num_segments=32, pages_per_segment=64,
                                       turnovers=3, warmup_turnovers=4)
        assert fifo.cleaning_cost == pytest.approx(greedy.cleaning_cost,
                                                   rel=0.15)

    def test_long_run_keeps_invariants(self):
        sim = simulate(FifoPolicy())
        sim.store.check_invariants()


class TestLocalityGathering:
    def test_uniform_cost_pinned_near_4(self):
        # Section 4.3: under uniform access "all segments always stay at
        # 80% utilization, leading to a fixed cleaning cost of 4".
        result = measure_cleaning_cost(LocalityGatheringPolicy(), "50/50",
                                       num_segments=32, pages_per_segment=128,
                                       turnovers=3, warmup_turnovers=5)
        assert result.cleaning_cost == pytest.approx(4.0, abs=0.6)

    def test_exploits_locality(self):
        uniform = measure_cleaning_cost(LocalityGatheringPolicy(), "50/50",
                                        num_segments=32,
                                        pages_per_segment=128,
                                        turnovers=3, warmup_turnovers=5)
        skewed = measure_cleaning_cost(LocalityGatheringPolicy(), "5/95",
                                       num_segments=32, pages_per_segment=128,
                                       turnovers=3, warmup_turnovers=8)
        assert skewed.cleaning_cost < uniform.cleaning_cost - 1.0

    def test_hot_data_gathers_in_low_segments(self):
        policy = LocalityGatheringPolicy()
        sim = PolicySimulator(policy, num_segments=16, pages_per_segment=128,
                              utilization=0.8, buffer_pages=0)
        live = sim.store.num_logical_pages
        workload = BimodalWorkload(live, 0.1, 0.9, seed=3)
        sim.run(workload, live * 2, warmup_writes=live * 10)
        store = sim.store
        positions = []
        for page in range(workload.hot_pages):
            loc = store.page_location[page]
            if loc is not None and loc[0] >= 0:
                positions.append(loc[0])
        mean_hot = sum(positions) / len(positions)
        # Hot data's centre of mass sits in the low-numbered half.
        assert mean_hot < 16 / 2 - 1

    def test_flush_returns_to_origin(self):
        store = SegmentStore(4, 8, 16)
        store.populate_contiguous()
        policy = LocalityGatheringPolicy()
        policy.attach(store)
        origin = store.buffer_page(9)
        written = policy.flush(9, origin)
        assert written == origin

    def test_flush_lands_on_a_position_packed_solid_with_live_pages(self):
        """Shedding only turns slots dead; the flush needs a second clean
        to reclaim them (it used to raise "no free slots", always)."""
        store = SegmentStore(3, 8, 21)
        for position, pages in enumerate((range(8, 14), range(8),
                                          range(14, 20))):
            for page in pages:
                store.append(position, page)
        policy = LocalityGatheringPolicy(gather_pages=0)
        policy.attach(store)
        solid = store.positions[1]
        assert solid.live_count == solid.capacity
        erases = store.erase_count
        assert policy.flush(20, 1) == 1
        # One page shed to a neighbour, the flushed one in its place.
        assert store.page_location[20] == (1, solid.capacity - 1)
        assert store.transfer_count == 1
        assert store.erase_count == erases + 2      # the honest cost
        assert sorted(page for position in store.positions
                      for page in position.slots) == list(range(21))
        store.check_invariants()

    def test_long_run_keeps_invariants(self):
        sim = simulate(LocalityGatheringPolicy(), label="10/90")
        sim.store.check_invariants()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LocalityGatheringPolicy(gather_pages=-1)
        with pytest.raises(ValueError):
            LocalityGatheringPolicy(deadband=1.5)


class TestHybrid:
    def test_partition_assignment(self):
        store = SegmentStore(8, 16, 64)
        store.populate_contiguous()
        policy = HybridPolicy(partition_segments=4)
        policy.attach(store)
        assert len(policy.partitions) == 2
        assert policy.partition_of(0).index == 0
        assert policy.partition_of(5).index == 1

    def test_partition_must_divide_segments(self):
        store = SegmentStore(10, 16, 64)
        store.populate_contiguous()
        with pytest.raises(ValueError):
            HybridPolicy(partition_segments=4).attach(store)

    def test_flush_back_to_origin_partition(self):
        store = SegmentStore(8, 16, 64)
        store.populate_contiguous()
        policy = HybridPolicy(partition_segments=4)
        policy.attach(store)
        origin = store.buffer_page(60)  # lives in partition 1
        written = policy.flush(60, origin)
        assert policy.partition_of(written).index == 1

    def test_fifo_rotation_within_partition(self):
        sim = simulate(HybridPolicy(partition_segments=4), segs=8, pages=32)
        for part in sim.policy.partitions:
            cleans = [sim.store.positions[m].clean_count
                      for m in part.members]
            assert max(cleans) - min(cleans) <= 3

    def test_beats_locality_gathering_at_uniform(self):
        # Figure 8: hybrid "comes close to the performance of the greedy
        # algorithm for uniform access distributions while consistently
        # beating pure locality gathering".
        hybrid = measure_cleaning_cost(HybridPolicy(8), "50/50",
                                       num_segments=32, pages_per_segment=64,
                                       turnovers=3, warmup_turnovers=4)
        locality = measure_cleaning_cost(LocalityGatheringPolicy(), "50/50",
                                         num_segments=32,
                                         pages_per_segment=64,
                                         turnovers=3, warmup_turnovers=4)
        assert hybrid.cleaning_cost < locality.cleaning_cost

    def test_partition_of_one_behaves_like_locality(self):
        single = measure_cleaning_cost(HybridPolicy(1), "50/50",
                                       num_segments=16, pages_per_segment=64,
                                       turnovers=3, warmup_turnovers=4)
        assert single.cleaning_cost == pytest.approx(4.0, abs=0.9)

    def test_whole_array_partition_behaves_like_fifo(self):
        hybrid = measure_cleaning_cost(HybridPolicy(16), "50/50",
                                       num_segments=16, pages_per_segment=64,
                                       turnovers=3, warmup_turnovers=4)
        fifo = measure_cleaning_cost(FifoPolicy(), "50/50", num_segments=16,
                                     pages_per_segment=64, turnovers=3,
                                     warmup_turnovers=4)
        assert hybrid.cleaning_cost == pytest.approx(fifo.cleaning_cost,
                                                     rel=0.25)

    def test_long_run_keeps_invariants(self):
        sim = simulate(HybridPolicy(partition_segments=4), label="10/90")
        sim.store.check_invariants()


def replay(sim, pages):
    """Run ``sim`` over exactly ``pages``, in order."""
    sim.run(TraceWorkload(sim.store.num_logical_pages, pages), len(pages))


class TestSimulatorBuffer:
    def test_buffer_coalesces_repeated_writes(self):
        sim = PolicySimulator(GreedyPolicy(), num_segments=8,
                              pages_per_segment=32, buffer_pages=16)
        replay(sim, [0] * 10)
        assert sim.buffer_hits == 9
        assert sim.store.flush_count == 0

    def test_buffer_flushes_fifo_tail(self):
        sim = PolicySimulator(GreedyPolicy(), num_segments=8,
                              pages_per_segment=32, buffer_pages=2)
        replay(sim, [0, 1, 2])  # 2 evicts page 0
        assert sim.store.page_location[0] != (-1, -1)
        assert sim.store.position_of(0) is not None

    def test_zero_buffer_flushes_immediately(self):
        sim = PolicySimulator(GreedyPolicy(), num_segments=8,
                              pages_per_segment=32, buffer_pages=0)
        replay(sim, [0])
        assert sim.store.flush_count == 1

    def test_workload_size_mismatch_rejected(self):
        sim = PolicySimulator(GreedyPolicy(), num_segments=8,
                              pages_per_segment=32)
        with pytest.raises(ValueError):
            sim.run(UniformWorkload(10), 5)

    @pytest.mark.parametrize("kwargs", [
        {"num_writes": -1}, {"num_writes": 5, "warmup_writes": -3}])
    def test_negative_run_lengths_rejected(self, kwargs):
        sim = PolicySimulator(GreedyPolicy(), num_segments=8,
                              pages_per_segment=32)
        workload = UniformWorkload(sim.store.num_logical_pages, seed=1)
        with pytest.raises(ValueError, match="-[13]"):
            sim.run(workload, **kwargs)
        assert sim.host_writes == 0

    def test_result_fields(self):
        result = measure_cleaning_cost(GreedyPolicy(), "50/50",
                                       num_segments=8, pages_per_segment=32,
                                       turnovers=2, warmup_turnovers=1)
        assert result.policy == "greedy"
        assert result.workload == "50/50"
        assert result.flushes > 0
        assert result.write_amplification == pytest.approx(
            1 + result.cleaning_cost)


# ----------------------------------------------------------------------
# Pinned replay: full end state of seeded runs, recorded before the
# write-path rewrite, as the ``store_run/<name>`` cases of the fidelity
# ledger.  They moved once on purpose, when the wear leveler began to
# reset with the counters after warm-up and its swap copies became
# ``wear_cleans``.  Otherwise never update them — a mismatch means a
# seeded output moved.
# ----------------------------------------------------------------------

#: name -> (policy, buffer_pages, buffer_policy, wear_leveling)
STORE_RUNS = {"-".join(map(str, key)): key for key in itertools.product(
    ("greedy", "fifo", "locality", "hybrid"), (0, None), ("fifo", "lru"),
    (True, False))}


class TestPinnedStoreRun:
    @staticmethod
    def run_slice(policy, buffer_pages, buffer_policy, wear_leveling):
        kwargs = {"partition_segments": 4} if policy == "hybrid" else {}
        sim = PolicySimulator(make_policy(policy, **kwargs), num_segments=16,
                              pages_per_segment=32, utilization=0.8,
                              buffer_pages=buffer_pages,
                              wear_leveling=wear_leveling, wear_threshold=6,
                              buffer_policy=buffer_policy)
        live = sim.store.num_logical_pages
        workload = BimodalWorkload.from_label(live, "10/90", seed=2024)
        return sim, sim.run(workload, live * 12, warmup_writes=live * 3)

    @pytest.mark.parametrize("name", STORE_RUNS)
    def test_end_state_digest(self, name):
        policy, buffer_pages, _, wear_leveling = key = STORE_RUNS[name]
        sim, result = self.run_slice(*key)
        store = sim.store
        # ``wear_cleans`` is a ledger key of its own; the hash covers
        # the result fields it was first recorded over.
        fields = dataclasses.asdict(result)
        del fields["wear_cleans"]
        state = (sorted(fields.items()),
                 store.page_location,
                 [(p.slots, p.phys, sorted(p.demoted))
                  for p in store.positions],
                 store.phys_erase_counts)
        # The slice exercises what it is meant to.
        assert result.erases > 0 and result.clean_copies > 0
        assert (result.transfers > 0) == (policy in ("locality", "hybrid"))
        assert (result.buffer_hits > 0) == (buffer_pages is None)
        # FIFO wears evenly by construction; the others must level.
        assert (result.wear_swaps > 0) == (wear_leveling
                                           and policy != "fifo")
        LEDGER.check(f"store_run/{name}", dict(
            dataclasses.asdict(result), cleaning_cost=result.cleaning_cost,
            sha256=hashlib.sha256(repr(state).encode()).hexdigest()))
