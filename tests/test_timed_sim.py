"""Tests for the timed simulator (Figures 13-15 behaviour)."""

import hashlib
import json
import random
from collections import OrderedDict

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import TpcParams
from repro.core.tracing import RunTrace
from repro.db import TpcaLayout
from repro.obs.events import HOST_READ
from repro.sim import build_tpca_system, simulate_tpca
from repro.sim.tracker import SimStats
from repro.workloads import TpcaTransaction, TpcaWorkload, page_runs
from repro.workloads.tpca import STRADDLING_READ

from .fidelity import LEDGER
from .test_controller import per_read_spans

# Small, fast configuration shared by most tests.
FAST = dict(num_segments=32, pages_per_segment=256, duration_s=0.05,
            warmup_s=0.01, prewarm_turnovers=4)


@pytest.fixture(scope="module")
def light_load():
    return simulate_tpca(2000, **FAST)


@pytest.fixture(scope="module")
def heavy_load():
    return simulate_tpca(80_000, **FAST)


class TestThroughput:
    def test_light_load_keeps_up(self, light_load):
        # Figure 13: throughput tracks the request rate below saturation.
        assert light_load.throughput_tps == pytest.approx(2000, rel=0.15)
        assert not light_load.saturated or \
            light_load.transactions_completed > 0

    def test_heavy_load_saturates(self, heavy_load):
        # Figure 13: throughput flattens once the cleaning system's
        # capacity is exceeded.
        assert heavy_load.throughput_tps < 70_000

    def test_saturation_has_no_idle_time(self, heavy_load):
        assert heavy_load.time_breakdown().get("idle", 0.0) < 0.05

    def test_light_load_mostly_idle(self, light_load):
        assert light_load.time_breakdown()["idle"] > 0.5


class TestLatency:
    def test_read_latency_near_raw_access(self, light_load):
        # Figure 15: reads stay near 180 ns at all loads.
        assert 160 <= light_load.read_latency.mean_ns <= 200

    def test_write_latency_near_200ns_below_saturation(self, light_load):
        assert 160 <= light_load.write_latency.mean_ns <= 300

    def test_reads_flat_even_at_saturation(self, heavy_load):
        assert heavy_load.read_latency.mean_ns <= 220

    def test_write_latency_jumps_at_saturation(self, heavy_load,
                                               light_load):
        # Figure 15: "the write latency jumps dramatically from 200ns to
        # 7.2us".
        assert (heavy_load.write_latency.mean_ns
                > 5 * light_load.write_latency.mean_ns)


class TestCleaningBehaviour:
    def test_flush_rate_about_one_page_per_transaction(self):
        # Section 5.5 measures 10,376 pages/s at 10,000 TPS.  Use a rate
        # high enough that segments turn over inside the window.
        stats = simulate_tpca(20_000, num_segments=32,
                              pages_per_segment=256, duration_s=0.1,
                              warmup_s=0.02, prewarm_turnovers=4)
        per_txn = stats.page_flush_rate / stats.throughput_tps
        assert 0.8 <= per_txn <= 1.6

    def test_cleaning_cost_positive_at_steady_state(self):
        stats = simulate_tpca(20_000, num_segments=32,
                              pages_per_segment=256, duration_s=0.1,
                              warmup_s=0.02, prewarm_turnovers=4)
        assert stats.cleaning_cost > 0.3

    def test_breakdown_fractions_sum_to_one(self, heavy_load):
        assert sum(heavy_load.time_breakdown().values()) == \
            pytest.approx(1.0, abs=0.01)

    def test_busy_includes_all_flash_activities(self, heavy_load):
        breakdown = heavy_load.time_breakdown()
        assert {"read", "flush", "clean", "erase"} <= set(breakdown)


class TestUtilizationCliff:
    def test_high_utilization_costs_more(self):
        low = simulate_tpca(20_000, utilization=0.5, **FAST)
        high = simulate_tpca(20_000, utilization=0.9, **FAST)
        # Figure 14: past 80% utilization performance drops steeply.
        assert high.cleaning_cost > low.cleaning_cost + 1.0


class TestSimulatorMechanics:
    def test_invalid_duration(self):
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256)
        with pytest.raises(ValueError):
            simulator.run(0)

    def test_negative_warmup_rejected(self):
        # Was accepted, and silently shortened the measured window.
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256)
        with pytest.raises(ValueError, match="-0.01"):
            simulator.run(0.05, warmup_s=-0.01)
        assert simulator.controller.metrics.reads == 0

    def test_offered_vs_completed_accounting(self, heavy_load):
        assert (heavy_load.transactions_completed
                <= heavy_load.transactions_offered)

    def test_prewarm_reaches_steady_state(self):
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256)
        simulator.prewarm(4)
        store = simulator.controller.store
        # Free space exists but is a small share after pre-warming.
        free = sum(p.free_slots for p in store.positions)
        total = store.num_positions * store.pages_per_segment
        assert free < total * 0.35
        assert len(simulator.controller.buffer) >= \
            simulator.controller.buffer.threshold_pages

    def test_store_invariants_after_run(self, heavy_load):
        # heavy_load fixture already ran; build a fresh one to inspect.
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256,
                                      rate_tps=30_000)
        simulator.prewarm(2)
        simulator.run(0.02)
        simulator.controller.store.check_invariants()

    def test_word_read_across_a_page_boundary_charges_both_pages(self):
        # TPC-A's 100-byte records straddle 256-byte pages, so _execute
        # must cost two page reads for such a word, not one.
        simulator = build_tpca_system(num_segments=32,
                                      pages_per_segment=256)
        controller = simulator.controller
        page_bytes = controller.config.page_bytes

        class OneTransaction:
            def __init__(self, addresses):
                self.addresses = addresses

            def runs(self, txn, page_bytes):
                return page_runs([(False, address)
                                  for address in self.addresses], page_bytes)

        aligned = [0, page_bytes - 8, 3 * page_bytes + 40]
        straddling = [page_bytes - 7, 2 * page_bytes - 1]
        simulator.workload = OneTransaction(aligned + straddling)
        stats = SimStats(requested_tps=1.0)
        clock = simulator._execute(None, 0, False, stats)
        assert controller.metrics.reads == len(aligned) + 2 * len(straddling)
        assert stats.read_latency.count == len(aligned) + len(straddling)
        assert clock == controller.metrics.busy_ns["read"]
        assert stats.read_latency.max_ns >= 2 * 160


# ----------------------------------------------------------------------
# Pinned runs: the read path may be re-cut, its outputs may not move
# ----------------------------------------------------------------------

def run_shape(workload, end_ns, page_bytes, mmu_capacity):
    """Classify the reads a twin ``workload`` offers before ``end_ns``.

    Returns ``(long_runs, straddles, cold_heads)``: same-page read runs
    longer than one, words straddling a page boundary, and heads of such
    runs whose page is not among the last ``mmu_capacity`` distinct
    pages touched — a superset of what the MMU can hold (it only ever
    gains an entry through a host translation), so those heads miss.
    """
    recent = OrderedDict()

    def touch(page):
        recent[page] = None
        recent.move_to_end(page)
        if len(recent) > mmu_capacity:
            recent.popitem(last=False)

    long_runs = straddles = cold_heads = 0
    while True:
        txn = workload.next_transaction()
        if txn.arrival_ns >= end_ns:
            return long_runs, straddles, cold_heads
        run_page, run_cold, run_len = None, False, 0
        for is_write, address in workload.accesses(txn):
            page, offset = divmod(address, page_bytes)
            straddle = offset > page_bytes - 8
            if not is_write and not straddle and page == run_page:
                run_len += 1
                if run_len == 2:
                    long_runs += 1
                    cold_heads += run_cold
                continue
            run_page, run_len = None, 0
            if not is_write and not straddle:
                run_page, run_cold, run_len = page, page not in recent, 1
            touch(page)
            if straddle:
                straddles += not is_write
                touch(page + 1)


class TestRunsAreTheAccessesGrouped:
    """``TpcaWorkload.runs`` places memoised patterns by layout
    arithmetic; ``page_runs`` over ``accesses()`` is its oracle."""

    @given(accounts=st.integers(1, 150_000),
           page_bytes=st.sampled_from((128, 256, 512, 4096)),
           picks=st.lists(st.floats(0, 1), max_size=6),
           seed=st.integers(0, 2**16))
    # Only a page of 1 KiB or more holds the end of one segment and the
    # start of the next: the cross-segment merge.
    @example(accounts=5, page_bytes=4096, picks=[], seed=0)
    @example(accounts=33, page_bytes=512, picks=[], seed=0)
    def test_runs_equal_page_runs_of_accesses(self, accounts, page_bytes,
                                              picks, seed):
        params = TpcParams().scaled_to_accounts(accounts)
        workload, twin = (TpcaWorkload(TpcaLayout(params), 50_000.0, seed)
                          for _ in range(2))
        # First and last key, first key of the (maybe partial) last
        # leaf, and wherever the draw lands.
        keys = {0, accounts - 1, (accounts - 1) // 32 * 32}
        keys.update(int(pick * (accounts - 1)) for pick in picks)
        for account in sorted(keys):
            teller = min(account // params.accounts_per_teller,
                         params.num_tellers - 1)
            txn = TpcaTransaction(account, teller,
                                  teller // params.tellers_per_branch, 0)
            assert workload.runs(txn, page_bytes) \
                == page_runs(workload.accesses(txn), page_bytes)
        # Run totals against the classifier the pins use, which reads
        # ``accesses()`` and never sees a run.
        end_ns = 1_000_000
        long_runs = straddles = 0
        while True:
            txn = workload.next_transaction()
            if txn.arrival_ns >= end_ns:
                break
            runs = workload.runs(txn, page_bytes)
            long_runs += sum(1 for _, count in runs if count > 1)
            straddles += sum(1 for _, count in runs
                             if count == STRADDLING_READ)
        assert (long_runs, straddles) \
            == run_shape(twin, end_ns, page_bytes, 64)[:2]


class TestPinnedTpcaRun:
    """Everything a timed TPC-A run reports and leaves behind — its
    headline numbers in plain and a sha256 of the rest, the
    ``tpca_run/<slice>`` cases of the fidelity ledger — **recorded at the
    commit before run-length reads (read_run_ns); never update**: a
    mismatch means the read path's simulated outputs moved, which no
    wall-clock change may do."""

    GEOMETRY = dict(num_segments=16, pages_per_segment=64)
    SEED = 11
    #: name -> (rate_tps, duration_s, warmup_s, mmu_capacity, subscribe)
    SLICES = {
        "unsaturated": (2_000.0, 0.02, 0.0, 64, False),
        "saturated": (150_000.0, 0.004, 0.0, 64, False),
        "warmup": (20_000.0, 0.004, 0.002, 64, False),
        "mmu2": (20_000.0, 0.004, 0.0, 2, False),
        "subscriber": (20_000.0, 0.002, 0.0, 64, True),
    }

    def build(self, rate_tps):
        simulator = build_tpca_system(rate_tps=rate_tps, seed=self.SEED,
                                      **self.GEOMETRY)
        simulator.prewarm(3)
        return simulator

    @pytest.mark.parametrize("name", sorted(SLICES))
    def test_pinned(self, name):
        LEDGER.check(f"tpca_run/{name}", self.pinned(name))

    @pytest.mark.parametrize("name", sorted(SLICES))
    def test_pinned_with_a_recorder_subscribed(self, name):
        """Recording is observational: a ``RunTrace`` on
        ``access_listeners`` moves nothing the pin covers."""
        LEDGER.check(f"tpca_run/{name}", self.pinned(name, record=True))

    def pinned(self, name, record=False):
        rate_tps, duration_s, warmup_s, capacity, subscribe = \
            self.SLICES[name]
        simulator = self.build(rate_tps)
        controller = simulator.controller
        controller.mmu.capacity = capacity
        spans = []
        if subscribe:
            # The pin is of per-read spans: a counted span is expanded.
            controller.events.subscribe(
                lambda event: spans.extend(per_read_spans(event)),
                prefix=HOST_READ)
        if not record:
            stats = simulator.run(duration_s, warmup_s)
        else:
            with RunTrace.of(controller).recording(controller) as trace:
                stats = simulator.run(duration_s, warmup_s)
            page_bytes = controller.config.page_bytes
            straddling = sum(1 for op, address, length, _, _ in trace.ops
                             if op == "r"
                             and address % page_bytes + length > page_bytes)
            assert straddling and len(trace) < trace.reads \
                == controller.metrics.reads - straddling

        # Non-vacuity: the slice exercises what it is here to pin.
        end_ns = int(warmup_s * 1e9) + int(duration_s * 1e9)
        long_runs, straddles, cold_heads = run_shape(
            self.build(rate_tps).workload, end_ns,
            controller.config.page_bytes, capacity)
        assert long_runs >= 1 and straddles >= 1 and cold_heads >= 1
        assert controller.mmu.misses >= cold_heads
        suspended = (simulator.rng.getstate()
                     != random.Random(self.SEED + 1).getstate())
        if name == "saturated":
            assert suspended and stats.host_stall_ns > 0
        if name == "warmup":
            assert controller.metrics.reads > stats.read_latency.count
        if name == "mmu2":
            assert cold_heads > stats.transactions_completed
        if subscribe:
            assert len(spans) == controller.metrics.reads
            assert any(a[2] == b[2] and a[1] > b[1]      # head missed,
                       for a, b in zip(spans, spans[1:]))  # repeat hit

        observed = {
            "stats": {
                "simulated_ns": stats.simulated_ns,
                "offered": stats.transactions_offered,
                "completed": stats.transactions_completed,
                "reads": stats.read_latency.state_dict(),
                "writes": stats.write_latency.state_dict(),
                "pages_flushed": stats.pages_flushed,
                "clean_copies": stats.clean_copies,
                "erases": stats.erases,
                "busy_ns": stats.busy_ns,
                "host_stall_ns": stats.host_stall_ns,
            },
            "metrics": controller.metrics.state_dict(),
            "mmu": [controller.mmu.hits, controller.mmu.misses,
                    list(controller.mmu._cache)],
            "host_reads": spans,
        }
        return {
            "transactions_completed": stats.transactions_completed,
            "read_p50_ns": stats.read_latency.p50,
            "read_p99_ns": stats.read_latency.p99,
            "write_p50_ns": stats.write_latency.p50,
            "write_p99_ns": stats.write_latency.p99,
            "host_stall_ns": stats.host_stall_ns,
            "sha256": hashlib.sha256(json.dumps(
                observed, sort_keys=True).encode()).hexdigest(),
        }
