"""Tests for the unified observability layer (``repro.obs``).

Covers the histogram's bucket geometry and percentile guarantees, the
event bus, the sampler, the exporters, and — most importantly — the
zero-perturbation contract: an instrumented run produces the same
simulated results as an uninstrumented one.
"""

import collections
import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import EnvyConfig, EnvySystem
from repro.core.metrics import ControllerMetrics
from repro.core.persistence import roundtrip
from repro.backends import RunTrace
from repro.faults import FaultEvent, FaultPlan
from repro.obs import (EventBus, LatencyHistogram, ObsEvent,
                       ObservabilityHub)
import repro.obs.hist as hist_module
from repro.obs.export import chrome_trace, events_jsonl, prometheus_text
from repro.obs.hist import (_TABLE_LIMIT, _TALLY_MAX, BULK_MIN,
                            RELATIVE_ERROR, SUBBUCKETS, _bucket_table,
                            bucket_bounds, bucket_index)
from repro.sim import build_tpca_system

from .fidelity import LEDGER


# ----------------------------------------------------------------------
# Histogram geometry
# ----------------------------------------------------------------------

class TestBuckets:
    def test_small_values_exact(self):
        for value in range(32):
            low, high = bucket_bounds(bucket_index(value))
            assert low == value == high

    def test_bounds_contain_value(self):
        for value in [32, 33, 100, 4_095, 4_096, 50_000, 10**9, 2**40]:
            low, high = bucket_bounds(bucket_index(value))
            assert low <= value <= high

    def test_relative_error_bound(self):
        for value in [40, 1000, 160_000, 50_000_000, 2**33 + 7]:
            low, high = bucket_bounds(bucket_index(value))
            assert (high - low) / low <= RELATIVE_ERROR

    def test_index_monotonic(self):
        indices = [bucket_index(v) for v in range(5000)]
        assert indices == sorted(indices)

    def test_adjacent_buckets_tile(self):
        # Every bucket's high + 1 is the next bucket's low.
        prev_high = -1
        for index in range(bucket_index(10**7)):
            low, high = bucket_bounds(index)
            assert low == prev_high + 1
            prev_high = high

    # A bulk fold gathers the indices of values below ``_TABLE_LIMIT``
    # from a table and computes the rest; both must be ``bucket_index``.
    def test_table_is_bucket_index_below_the_limit(self):
        table = _bucket_table()
        assert len(table) == _TABLE_LIMIT
        assert list(table) == list(map(bucket_index, range(_TABLE_LIMIT)))

    @pytest.mark.parametrize("first", [_TABLE_LIMIT - BULK_MIN // 2,
                                       _TABLE_LIMIT])
    def test_first_values_above_the_limit(self, first):
        values = list(range(first, first + BULK_MIN))
        hist = LatencyHistogram()
        hist.record_many(values)
        assert hist.buckets == collections.Counter(map(bucket_index, values))


def reference_record(samples):
    """What ``LatencyHistogram.record`` must leave behind, written the
    slow, obvious way: coerce, clamp, then count the sample's bucket."""
    state = {"count": 0, "total_ns": 0, "min_ns": 0, "max_ns": 0,
             "buckets": {}}
    for sample in samples:
        ns = max(0, int(sample))
        if state["count"] == 0 or ns < state["min_ns"]:
            state["min_ns"] = ns
        state["max_ns"] = max(state["max_ns"], ns)
        state["count"] += 1
        state["total_ns"] += ns
        index = bucket_index(ns)
        state["buckets"][index] = state["buckets"].get(index, 0) + 1
    return state


#: Everything ``record`` accepts: ints, floats, bools, negatives.
_SAMPLES = st.one_of(
    st.integers(min_value=-(1 << 20), max_value=1 << 62),
    st.floats(min_value=-1e6, max_value=1e15, allow_nan=False),
    st.booleans())

#: Readers the fold-on-read property interleaves with recording.
_READERS = ["count", "total_ns", "min_ns", "max_ns", "mean_ns", "buckets",
            "p50", "p999", "iter_buckets", "octaves",
            "state_dict", "__str__"]


class TestHistogram:
    def test_empty_str(self):
        assert str(LatencyHistogram()) == "n=0 (empty)"

    def test_exact_extremes_and_mean(self):
        hist = LatencyHistogram()
        for value in (160, 200, 52_000_000):
            hist.record(value)
        assert hist.min_ns == 160
        assert hist.max_ns == 52_000_000
        assert hist.mean_ns == pytest.approx((160 + 200 + 52_000_000) / 3)

    def test_percentiles_monotonic(self):
        hist = LatencyHistogram()
        for value in range(1, 10_000, 7):
            hist.record(value * 13)
        samples = [hist.percentile(p)
                   for p in (0, 10, 25, 50, 75, 90, 99, 99.9, 100)]
        assert samples == sorted(samples)
        assert samples[0] >= hist.min_ns
        assert samples[-1] == hist.max_ns

    def test_percentiles_near_exact(self):
        values = [(v * 37) % 100_000 + 100 for v in range(5000)]
        hist = LatencyHistogram()
        for value in values:
            hist.record(value)
        ordered = sorted(values)
        for p in (50, 90, 99):
            exact = ordered[max(0, -(-len(ordered) * p // 100) - 1)]
            got = hist.percentile(p)
            assert got == pytest.approx(exact, rel=RELATIVE_ERROR + 0.01)

    def test_merge_equals_combined_recording(self):
        a, b, combined = (LatencyHistogram() for _ in range(3))
        left = [160, 200, 4000, 52_000_000]
        right = [170, 170, 999, 3]
        for value in left:
            a.record(value)
            combined.record(value)
        for value in right:
            b.record(value)
            combined.record(value)
        a.merge(b)
        assert a.count == combined.count
        assert a.total_ns == combined.total_ns
        assert a.buckets == combined.buckets
        assert (a.min_ns, a.max_ns) == (combined.min_ns, combined.max_ns)
        for p in (50, 90, 99, 99.9):
            assert a.percentile(p) == combined.percentile(p)

    def test_state_roundtrip(self):
        hist = LatencyHistogram()
        for value in (1, 160, 4000, 52_000_000):
            hist.record(value)
        copy = LatencyHistogram.from_state(hist.state_dict())
        assert copy.buckets == hist.buckets
        assert copy.count == hist.count
        assert (copy.min_ns, copy.max_ns) == (hist.min_ns, hist.max_ns)
        assert str(copy) == str(hist)

    def test_negative_clamped(self):
        hist = LatencyHistogram()
        hist.record(-5)
        assert hist.min_ns == 0

    def test_record_coerces_what_is_not_an_int(self):
        # record() skips int() for plain ints only; everything else is
        # still truncated and clamped as before.
        np = pytest.importorskip("numpy")
        for sample, stored in [(2.9, 2), (-0.5, 0), (-7, 0), (True, 1),
                               (False, 0), (np.int64(52_000_000),
                                            52_000_000),
                               (np.int32(-3), 0), (np.uint8(31), 31),
                               (1e6, 1_000_000)]:
            hist = LatencyHistogram()
            hist.record(sample)
            assert hist.state_dict() == reference_record([sample])
            assert (hist.min_ns, hist.max_ns, hist.total_ns) == \
                (stored, stored, stored)
            assert type(hist.total_ns) is int
            assert all(type(key) is int for key in hist.buckets)
        with pytest.raises(ValueError):
            LatencyHistogram().record(float("nan"))

    @given(st.lists(_SAMPLES, max_size=60))
    def test_record_equals_reference_record(self, samples):
        hist = LatencyHistogram()
        for sample in samples:
            hist.record(sample)
        assert hist.state_dict() == reference_record(samples)

    @given(st.lists(_SAMPLES, max_size=12), _SAMPLES,
           st.sampled_from([0, 1, 2, 7, 1000]))
    def test_record_n_equals_n_records(self, before, sample, n):
        bulk, each = LatencyHistogram(), LatencyHistogram()
        for hist in (bulk, each):
            for earlier in before:
                hist.record(earlier)
        bulk.record_n(sample, n)
        for _ in range(n):
            each.record(sample)
        assert bulk.state_dict() == each.state_dict()
        assert list(bulk.buckets) == list(each.buckets)   # same order
        assert type(bulk.total_ns) is int

    def test_record_n_refuses_a_negative_count(self):
        hist = LatencyHistogram()
        hist.record(160)
        before = hist.state_dict()
        with pytest.raises(ValueError, match="-1"):
            hist.record_n(160, -1)
        hist.record_n(float("nan"), 0)       # n == 0 touches nothing
        assert hist.state_dict() == before

    @pytest.mark.parametrize("n", [1.5, 2.0, True])
    def test_record_n_counts_whole_samples(self, n):
        """1.5 samples once entered the tally, and the count with them."""
        hist = LatencyHistogram()
        hist.record(160)
        before = hist.state_dict()
        with pytest.raises(TypeError):
            hist.record_n(160, n)
        assert hist.state_dict() == before

    @given(st.lists(_SAMPLES, max_size=12),
           st.lists(st.one_of(
               _SAMPLES, st.integers(1 << 63, 1 << 70),
               st.sampled_from([0, 2 * SUBBUCKETS - 1, 2 * SUBBUCKETS,
                                2 * SUBBUCKETS + 1])),
               max_size=3 * BULK_MIN))
    @example(before=[], samples=[])
    @example(before=[7], samples=[-3, -2.5] * BULK_MIN)
    @example(before=[], samples=[0] * BULK_MIN)
    @example(before=[40], samples=[1 << 64, True, 31.9] + [33] * BULK_MIN)
    # Short lists: one that crosses _TALLY_MAX (the tally folds midway),
    # bools and floats, and a NaN after samples that stay recorded.
    @example(before=list(range(_TALLY_MAX - 5)),
             samples=[3, 7] + list(range(10**6, 10**6 + 20)) + [3, 10**6])
    @example(before=[3], samples=[True, False, 2.5, 7.0, True, 1e3, -0.5])
    @example(before=[], samples=[160, 2.0, 160, float("nan"), 5])
    # Long lists either side of the bucket table's limit: all below it
    # (the table), and one value at or past it (arithmetic for all).
    @example(before=[], samples=[-3, 2.5, True, False, _TABLE_LIMIT - 0.5]
             + list(range(0, _TABLE_LIMIT, 1024)))
    @example(before=[9], samples=[True, 160, 160.9, -1] * BULK_MIN)
    @example(before=[], samples=[-3, 2.5, True, False, _TABLE_LIMIT]
             + list(range(160, 160 + BULK_MIN)))
    @example(before=[], samples=[_TABLE_LIMIT + 0.5, -7.5]
             + [_TABLE_LIMIT - 1] * BULK_MIN)
    def test_record_many_equals_each_recorded(self, before, samples):
        """Either side of BULK_MIN: the tally loop and the bulk folds."""
        bulk, each = LatencyHistogram(), LatencyHistogram()
        for hist in (bulk, each):
            for earlier in before:
                hist.record(earlier)
        refused = []
        try:
            bulk.record_many(samples)
        except ValueError:
            refused.append("bulk")
        try:
            for sample in samples:
                each.record(sample)
        except ValueError:
            refused.append("each")
        assert refused in ([], ["bulk", "each"])
        assert bulk.state_dict() == each.state_dict()
        assert list(bulk.buckets) == list(each.buckets)   # same order
        assert type(bulk.total_ns) is int
        assert all(type(key) is int for key in bulk.buckets)

    def test_record_many_refuses_what_record_refuses(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record_many([160.0, float("nan")] * BULK_MIN)

    @given(st.lists(st.one_of(
        st.tuples(st.just("record"), _SAMPLES),
        st.tuples(st.just("record_n"), _SAMPLES,
                  st.sampled_from([0, 1, 3, 1000])),
        st.tuples(st.just("record_many"),
                  st.lists(_SAMPLES, max_size=BULK_MIN - 1)),
        st.tuples(st.just("record_many"),
                  st.lists(_SAMPLES, min_size=BULK_MIN,
                           max_size=BULK_MIN + 8)),
        st.tuples(st.just("merge"), st.lists(_SAMPLES, max_size=8)),
        st.tuples(st.just("read"), st.sampled_from(_READERS))),
        max_size=20))
    @example(ops=[("record", 5), ("read", "count"),
                  ("record_many", [-1] + [1 << 40] * BULK_MIN),
                  ("merge", [7, 7, -3]), ("record_n", 5, 3)])
    def test_fold_on_read_is_exact(self, ops):
        """Reads at any point fold the tally; none changes what the
        histogram ends up holding."""
        hist, samples = LatencyHistogram(), []
        for op, *args in ops:
            if op == "record":
                hist.record(args[0])
                samples.append(args[0])
            elif op == "record_n":
                hist.record_n(*args)
                samples += [args[0]] * args[1]
            elif op == "record_many":
                hist.record_many(args[0])
                samples += args[0]
            elif op == "merge":
                other = LatencyHistogram()       # merged unfolded
                for sample in args[0]:
                    other.record(sample)
                hist.merge(other)
                samples += args[0]
            else:
                value = getattr(hist, args[0])
                if callable(value):
                    list(value())
            assert len(hist._tally or ()) <= _TALLY_MAX
        assert hist.state_dict() == reference_record(samples)

    def test_distinct_values_never_outgrow_the_buckets(self):
        hist = LatencyHistogram()
        for value in range(3 * _TALLY_MAX):
            hist.record(value * 1_000_003)
            assert len(hist._tally or ()) <= _TALLY_MAX
        for value in range(3 * _TALLY_MAX):
            hist.record_n(-value, 2)
            assert len(hist._tally or ()) <= _TALLY_MAX
        assert hist.count == 9 * _TALLY_MAX
        assert hist.min_ns == 0 and not hist._tally

    def test_tallies_key_a_value_by_one_shared_int(self):
        fresh = [int(str(10**6 + 7)) for _ in range(3)]   # equal, not same
        with mock.patch.dict(hist_module._SHARED_VALUES, clear=True):
            tallies = [LatencyHistogram() for _ in fresh]
            for hist, value in zip(tallies, fresh):
                hist.record(value)
            keys = [next(iter(hist._tally)) for hist in tallies]
            assert keys[0] is keys[1] is keys[2]
            hist_module._SHARED_VALUES.update(
                (n, n) for n in range(_TALLY_MAX - 1))  # full: no sharing
            hist = LatencyHistogram()
            hist.record(fresh[0] + 1)
            assert len(hist_module._SHARED_VALUES) == _TALLY_MAX
            assert hist.state_dict() == reference_record([fresh[0] + 1])

    def test_p999_rank_is_exact(self):
        # 41 000 * 99.9 / 100 is 40 959 exactly; in floats it rounds up
        # and took the first of the 41 slow samples.
        hist = LatencyHistogram()
        hist.record_n(0, 40_959)
        hist.record_n(10**6, 41)
        assert hist.p999 == 0
        hist.record(10**6)                      # rank 40 960 now
        assert hist.p999 == 10**6
        for p in (0.1, 12.5, 33.3, 99.9, 99.99):
            rank = Fraction(str(p)) / 100
            for n in (1, 7, 1000, 41_000, 82_000, 1_000_000):
                hist = LatencyHistogram()
                target = max(1, math.ceil(n * rank))
                hist.record_n(1, target - 1)    # exact buckets: the rank
                hist.record_n(2, n - target + 1)  # is the first 2
                assert hist.percentile(p) == 2, (p, n)


def _valid_state():
    hist = LatencyHistogram()
    for value in (1, 160, 4000, 52_000_000):
        hist.record(value)
    return hist.state_dict()


def _edited(**changes):
    state = _valid_state()
    state.update(changes)
    return state


_VALID = _valid_state()
_HOSTILE_STATES = {
    "not a mapping": [1, 2, 3],
    "negative count": _edited(count=-4),
    "float count": _edited(count=4.0),
    "bool count": _edited(count=True),
    "string count": _edited(count="4"),
    "negative total": _edited(total_ns=-1),
    "none min": _edited(min_ns=None),
    "buckets a list": _edited(buckets=[1, 2]),
    "string bucket key": _edited(buckets={
        str(k): v for k, v in _VALID["buckets"].items()}),
    "negative bucket key": _edited(buckets={-1: 4}, min_ns=0, max_ns=0,
                                   total_ns=0),
    "float bucket count": _edited(buckets={
        k: float(v) for k, v in _VALID["buckets"].items()}),
    "negative bucket count": _edited(buckets={1: 5, 160: -1}),
    "empty bucket": _edited(buckets={**_VALID["buckets"], 40: 0}),
    "buckets short of count": _edited(count=5),
    "buckets over count": _edited(count=3),
    "min above max": _edited(min_ns=52_000_000, max_ns=1),
    "total above count * max": _edited(total_ns=4 * 52_000_000 + 1),
    "total below count * min": _edited(min_ns=160, total_ns=639,
                                       buckets={bucket_index(160): 2,
                                                bucket_index(4000): 1,
                                                bucket_index(52_000_000):
                                                1}),
    "negative min": _edited(min_ns=-1),
    "empty with a max": {"count": 0, "total_ns": 0, "min_ns": 0,
                         "max_ns": 7, "buckets": {}},
    **{f"truncated at {key}": {k: v for k, v in _VALID.items() if k != key}
       for key in _VALID},
}


class TestHostileHistogramState:
    """``load_state`` refuses what no recording produces: snapshot
    files feed it (``core/persistence.py``)."""

    def test_a_valid_state_loads(self):
        hist = LatencyHistogram.from_state(_valid_state())
        assert hist.state_dict() == _valid_state()
        assert LatencyHistogram.from_state(
            LatencyHistogram().state_dict()).count == 0

    @pytest.mark.parametrize("name", sorted(_HOSTILE_STATES))
    def test_hostile_state_is_refused(self, name):
        with pytest.raises(ValueError, match="histogram state"):
            LatencyHistogram.from_state(_HOSTILE_STATES[name])
        hist = LatencyHistogram()
        hist.record(33)
        before = hist.state_dict()
        with pytest.raises(ValueError):
            hist.load_state(_HOSTILE_STATES[name])
        assert hist.state_dict() == before


class TestMetricsPersistence:
    def test_controller_metrics_state_roundtrip(self):
        metrics = ControllerMetrics()
        metrics.reads = 7
        metrics.charge("clean", 1234)
        metrics.read_latency.record(180)
        metrics.write_latency.record(52_000_000)
        copy = ControllerMetrics()
        copy.load_state(metrics.state_dict())
        assert copy.reads == 7
        assert copy.busy_ns == {"clean": 1234}
        assert copy.read_latency.p50 == metrics.read_latency.p50
        assert copy.write_latency.max_ns == 52_000_000

    def test_snapshot_carries_metrics(self):
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=32))
        system.write(0, b"x" * 600)
        system.read(0, 600)
        copy = roundtrip(system)
        assert copy.metrics.writes == system.metrics.writes
        assert copy.metrics.write_latency.count == \
            system.metrics.write_latency.count
        assert copy.metrics.write_latency.p99 == \
            system.metrics.write_latency.p99


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------

class TestEventBus:
    def test_inactive_until_subscribed(self):
        bus = EventBus()
        assert not bus.active
        handler = lambda event: None  # noqa: E731
        bus.subscribe(handler)
        assert bus.active
        bus.unsubscribe(handler)
        assert not bus.active

    def test_emit_span_advances_clock(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit_span("clean.erase", 5000, {"segment": 3})
        assert bus.clock_ns == 5000
        assert seen[0].kind == "clean.erase"
        assert seen[0].t_ns == 0
        assert seen[0].dur_ns == 5000

    def test_prefix_filter(self):
        bus = EventBus()
        faults, everything = [], []
        bus.subscribe(faults.append, prefix="fault.")
        bus.subscribe(everything.append)
        bus.mark("fault.bad_block", {"segment": 1})
        bus.mark("wear.swap")
        assert [event.kind for event in faults] == ["fault.bad_block"]
        assert len(everything) == 2

    def test_sync_never_rewinds(self):
        bus = EventBus()
        bus.sync(1000)
        bus.sync(400)
        assert bus.clock_ns == 1000

    def test_event_as_dict_flattens_data(self):
        event = ObsEvent("host.write", 10, 160, {"page": 4})
        row = event.as_dict()
        assert row["kind"] == "host.write"
        assert row["page"] == 4


# ----------------------------------------------------------------------
# Typed fault routing
# ----------------------------------------------------------------------

class TestTypedFaults:
    def test_trace_faults_are_typed(self):
        system = EnvySystem(EnvyConfig.small(
            num_segments=8, pages_per_segment=32,
            fault_plan=FaultPlan(seed=13, transient_erase_rate=0.6),
            reserve_segments=2, erase_retries=40))
        pages = system.size_bytes // 256
        with RunTrace.of(system).recording(system) as trace:
            for i in range(3000):
                system.write((i % pages) * 256, b"y" * 256)
        assert trace.faults, "fault plan produced no events"
        for fault in trace.faults:
            assert isinstance(fault, FaultEvent)
        kinds = {fault.kind for fault in trace.faults}
        assert "transient_erase_failure" in kinds
        assert trace.faults[0].kind in kinds
        # Recording leaves the bus dormant.
        assert not system.events.active


# ----------------------------------------------------------------------
# Hub + sampler + exporters against a real simulated run
# ----------------------------------------------------------------------

def _smoke_sim(seed=7):
    simulator = build_tpca_system(num_segments=16, pages_per_segment=64,
                                  rate_tps=8000.0, seed=seed)
    simulator.prewarm(5.0)
    return simulator


@pytest.fixture(scope="module")
def observed():
    simulator = _smoke_sim()
    hub = ObservabilityHub(simulator.controller,
                           sample_interval_ns=1_000_000)
    stats = simulator.run(0.02)
    hub.close()
    return simulator, hub, stats


class TestHub:
    def test_events_flow(self, observed):
        _, hub, _ = observed
        assert hub.total_events() > 0
        assert hub.dropped_events == 0
        kinds = set(hub.kind_counts)
        assert "host.write" in kinds
        assert "host.read" in kinds
        assert "buffer.flush" in kinds
        assert "clean.copy" in kinds

    def test_span_histograms(self, observed):
        _, hub, _ = observed
        flush = hub.span_histograms["buffer.flush"]
        assert flush.count == hub.kind_counts["buffer.flush"]
        assert flush.min_ns > 0

    def test_host_events_match_metrics(self, observed):
        simulator, hub, _ = observed
        metrics = simulator.controller.metrics
        assert hub.kind_counts["host.read"] == \
            metrics.read_latency.count
        assert hub.kind_counts["host.write"] == \
            metrics.write_latency.count

    def test_sampler_windows(self, observed):
        _, hub, _ = observed
        windows = hub.sampler.windows
        assert len(windows) >= 10
        for window in windows[:-1]:
            assert window.duration_ns == 1_000_000
        assert hub.latest_window() is windows[-1]
        # Gauges were filled in from the live system.
        assert windows[-1].buffer_capacity > 0
        assert 0.0 <= windows[-1].utilization <= 1.0

    def test_health_report_window(self, observed):
        simulator, _, _ = observed
        health = simulator.controller.health_report()
        assert health["write_latency_p99_ns"] >= \
            health["write_latency_p50_ns"] > 0
        assert "window_writes" in health

    def test_time_by_kind_sorted(self, observed):
        _, hub, _ = observed
        spans = list(hub.time_by_kind().values())
        assert spans == sorted(spans, reverse=True)


class TestCountedHostReads:
    """A hub-attached TPC-A slice hears a read run as at most two
    ``host.read`` events, and accounts it read by read."""

    def test_fewer_events_same_accounting(self):
        simulator = build_tpca_system(num_segments=16, pages_per_segment=64,
                                      rate_tps=20_000.0, seed=11)
        simulator.prewarm(3)
        controller = simulator.controller
        hub = ObservabilityHub(controller, sample_interval_ns=250_000)
        simulator.run(0.002)
        hub.close()
        metrics = controller.metrics
        heard = [event for event in hub.events if event.kind == "host.read"]
        assert any(event.data.get("count", 1) > 1 for event in heard)
        assert len(heard) < 0.45 * metrics.reads
        assert hub.kind_counts["host.read"] == metrics.reads
        assert hub.span_histograms["host.read"].state_dict() \
            == metrics.read_latency.state_dict()
        assert hub.time_by_kind()["host.read"] == metrics.busy_ns["read"]
        # The window list of the commit before HOST_READ carried a
        # count (per-read spans) — never update.
        LEDGER.check("hub_windows/tpca_20k",
                     {"windows": hub.sampler.as_dicts()})

    def test_counted_span_exports_parse(self):
        events = [ObsEvent("host.read", 100, 260, {"page": 4}),
                  ObsEvent("host.read", 360, 480, {"page": 4, "count": 3})]
        row = json.loads(chrome_trace(events))["traceEvents"][-1]
        assert (row["ph"], row["dur"], row["args"]) \
            == ("X", 0.48, {"page": 4, "count": 3})
        assert json.loads(events_jsonl(events).splitlines()[-1]) == {
            "kind": "host.read", "t_ns": 360, "dur_ns": 480, "page": 4,
            "count": 3}


class TestExporters:
    def test_chrome_trace_tracks(self, observed):
        _, hub, _ = observed
        trace = json.loads(hub.chrome_trace_json())
        events = trace["traceEvents"]
        names = {event["args"]["name"] for event in events
                 if event.get("ph") == "M"
                 and event.get("name") == "thread_name"}
        assert {"host ops", "write buffer", "cleaner"} <= names
        span_tids = {event["tid"] for event in events
                     if event.get("ph") == "X"}
        # Host ops and cleaning land on separate tracks.
        assert 1 in span_tids and 3 in span_tids
        for event in events:
            if event.get("ph") == "X":
                assert event["dur"] > 0

    def test_prometheus_text(self, observed):
        simulator, hub, _ = observed
        text = hub.prometheus()
        assert text.startswith("# HELP")
        metrics = simulator.controller.metrics
        assert f"envy_flushes_total {metrics.flushes}" in text
        assert 'envy_write_latency_ns_bucket{le="+Inf"} ' \
            f"{metrics.write_latency.count}" in text
        # Bucket counts are cumulative: non-decreasing down the lines.
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()
                  if line.startswith("envy_write_latency_ns_bucket")]
        assert counts == sorted(counts)

    def test_events_jsonl(self, observed):
        _, hub, _ = observed
        lines = hub.events_jsonl().splitlines()
        # A counted host.read row stands for ``count`` reads.
        assert sum(json.loads(line).get("count", 1) for line in lines) \
            == hub.total_events() > len(lines)
        row = json.loads(lines[0])
        assert {"kind", "t_ns", "dur_ns"} <= set(row)

    def test_write_exports(self, observed, tmp_path):
        _, hub, _ = observed
        written = hub.write_exports(str(tmp_path / "out"))
        assert set(written) == {"trace.json", "metrics.prom",
                                "events.jsonl", "timeseries.json"}
        windows = json.loads(
            (tmp_path / "out" / "timeseries.json").read_text())
        assert isinstance(windows, list) and windows
        assert windows[0]["t_start_ns"] == 0

    def test_empty_event_exporters(self):
        events = json.loads(chrome_trace([]))["traceEvents"]
        # Only the process-name metadata record; no spans or instants.
        assert all(event["ph"] == "M" for event in events)
        assert events_jsonl([]) == ""
        text = prometheus_text(ControllerMetrics())
        assert "envy_reads_total 0" in text


# ----------------------------------------------------------------------
# The zero-perturbation contract
# ----------------------------------------------------------------------

class TestNoPerturbation:
    def test_identical_results_with_and_without_hub(self):
        plain = _smoke_sim()
        stats_plain = plain.run(0.02)

        instrumented = _smoke_sim()
        hub = ObservabilityHub(instrumented.controller)
        stats_obs = instrumented.run(0.02)
        hub.close()

        for attr in ("transactions_completed", "pages_flushed",
                     "clean_copies", "erases", "simulated_ns"):
            assert getattr(stats_obs, attr) == getattr(stats_plain, attr)
        assert stats_obs.busy_ns == stats_plain.busy_ns
        for stat in ("read_latency", "write_latency"):
            a = getattr(stats_obs, stat)
            b = getattr(stats_plain, stat)
            assert a.buckets == b.buckets
            assert a.total_ns == b.total_ns
        plain_m = plain.controller.metrics
        obs_m = instrumented.controller.metrics
        assert obs_m.flushes == plain_m.flushes
        assert obs_m.clean_copies == plain_m.clean_copies
        assert obs_m.erases == plain_m.erases


# ----------------------------------------------------------------------
# Exporter determinism for traced service runs
# ----------------------------------------------------------------------

class TestExporterDeterminism:
    """Every exported artifact of a traced run is byte-identical across
    reruns and ``--jobs`` fan-out."""

    @staticmethod
    def _artifacts(jobs):
        from repro.obs.export import service_prometheus_text
        from repro.service import EnvyService, ServiceConfig, TenantSpec

        config = ServiceConfig(num_shards=2, num_segments=8,
                               pages_per_segment=32, seed=13,
                               retry_limit=2, queue_capacity=32)
        tenants = [
            TenantSpec("online", rate_tps=2e6, skew=1.0,
                       write_fraction=0.3, slo_read_p99_ns=100_000,
                       slo_write_p99_ns=250_000),
            TenantSpec("storm", rate_tps=2e6, workload="clean_amp",
                       write_fraction=1.0),
        ]
        service = EnvyService(config, tenants)
        stats = service.run(0.0004, jobs=jobs, trace=True)
        health = service.health_report()
        trace = service.last_trace
        return {
            "prometheus": service_prometheus_text(
                stats, health.get("security"), health.get("slo")),
            "jsonl": trace.to_jsonl(),
            "chrome": trace.chrome_trace(),
        }

    def test_identical_across_jobs(self):
        baseline = self._artifacts(jobs=1)
        assert baseline["jsonl"].count("\n") > 0
        for jobs in (4, 1):
            assert self._artifacts(jobs=jobs) == baseline
