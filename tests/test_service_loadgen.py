"""Tests for the deterministic multi-tenant load generator."""

import collections
import hashlib
import heapq
import random
from array import array
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import LoadGenerator, TenantSpec, loadgen
from repro.service.bench import scale_fleet

from .fidelity import LEDGER

PAGES = 512


def gen(tenants, seed=0):
    return LoadGenerator(tenants, PAGES, seed=seed)


class TestSchedule:
    def test_schedule_is_deterministic(self):
        tenants = [TenantSpec("a", rate_tps=5e6),
                   TenantSpec("b", rate_tps=2e6, workload="uniform")]
        first, acct1 = gen(tenants).generate(0.0005)
        second, acct2 = gen(tenants).generate(0.0005)
        assert first == second
        assert acct1 == acct2

    def test_schedule_sorted_with_total_order(self):
        tenants = [TenantSpec("a", rate_tps=5e6),
                   TenantSpec("b", rate_tps=5e6)]
        schedule, _ = gen(tenants).generate(0.0005)
        keys = [(arrival, tenant, seq)
                for arrival, tenant, seq, _, _ in schedule]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("rows", [64, 10**9])
    def test_arrival_ties_keep_tenant_then_seq_order(self, rows):
        """Windows sort on the arrival alone; a stable sort over runs
        concatenated in tenant order keeps ties in (tenant, seq) order.
        Twin closed-loop tenants with no think time emit identical
        instants, and a TPC-A tenant repeats its stamp per access."""
        twin = dict(rate_tps=1.0, mode="closed", clients=3, think_ns=0,
                    service_estimate_ns=500)
        tenants = [TenantSpec("t", rate_tps=5e4, workload="tpca"),
                   TenantSpec("a", **twin), TenantSpec("b", **twin)]
        with windowed(rows):
            schedule, _ = gen(tenants).generate(0.0002)
        owners = collections.defaultdict(set)
        rows_at = collections.Counter()
        for arrival, tenant, _, _, _ in schedule:
            owners[arrival].add(tenant)
            rows_at[arrival, tenant] += 1
        assert sum(len(tenants) > 1 for tenants in owners.values()) > 100
        assert max(count for (_, tenant), count in rows_at.items()
                   if tenant == 0) > 10
        assert schedule == sorted(schedule)

    def test_pages_within_service_space(self):
        tenants = [TenantSpec("z", rate_tps=5e6, skew=1.2),
                   TenantSpec("t", rate_tps=2e4, workload="tpca"),
                   TenantSpec("u", rate_tps=2e6, workload="uniform")]
        schedule, _ = gen(tenants).generate(0.0005)
        assert schedule
        assert all(0 <= page < PAGES
                   for _, _, _, _, page in schedule)

    def test_tenant_streams_are_decorrelated(self):
        """Adding a tenant must not perturb an existing tenant's trace."""
        alone, _ = gen([TenantSpec("a", rate_tps=5e6)]).generate(0.0005)
        together, _ = gen([TenantSpec("a", rate_tps=5e6),
                           TenantSpec("b", rate_tps=5e6)]).generate(0.0005)
        a_rows = [(arr, seq, w, page)
                  for arr, idx, seq, w, page in together if idx == 0]
        assert a_rows == [(arr, seq, w, page)
                          for arr, _, seq, w, page in alone]

    def test_open_loop_rate_is_roughly_honoured(self):
        schedule, acct = gen([TenantSpec("a", rate_tps=1e7)]).generate(
            0.001)
        # Poisson at 1e7/s over 1 ms -> ~10k arrivals (+-40% tolerance).
        assert 6000 < acct["a"]["offered"] < 14000
        assert len(schedule) == acct["a"]["offered"]


class TestPinnedSchedule:
    """The schedule is a contract: every recorded fidelity digest hangs
    off it.  Its row count and sha256 (``loadgen_schedule/mixed_fleet``
    in the fidelity ledger) were recorded at the commit *before* the
    single-pass / shared-table rewrite and must never be updated to
    make a loadgen change pass."""

    DURATION_S = 0.004

    @staticmethod
    def check(schedule, accounting):
        LEDGER.check("loadgen_schedule/mixed_fleet", {
            "rows": len(schedule),
            "sha256": hashlib.sha256(
                repr((schedule, accounting)).encode()).hexdigest()})

    def fleet(self):
        return [TenantSpec.from_spec(t)
                for t in scale_fleet(60, self.DURATION_S)] + [
            TenantSpec("uniform", rate_tps=4e5, workload="uniform",
                       write_fraction=0.2),
            TenantSpec("tpca", rate_tps=2e4, workload="tpca",
                       rate_limit_tps=4e5, burst=32.0),
            TenantSpec("closed", mode="closed", clients=4,
                       think_ns=20_000, skew=1.2),
            TenantSpec("hammer", rate_tps=3e5, workload="hammer",
                       write_fraction=1.0, attack_pages=48),
            TenantSpec("clean_amp", rate_tps=3e5, workload="clean_amp",
                       write_fraction=0.9, page_range=(64, 448)),
            TenantSpec("squat", rate_tps=3e5, workload="squat",
                       write_fraction=0.8, attack_pages=96),
            TenantSpec("ranged", rate_tps=4e5, skew=0.8, scatter=False,
                       page_range=(128, 384)),
            TenantSpec("limited", rate_tps=1e6, rate_limit_tps=2e5,
                       burst=16.0),
            TenantSpec("quarantined", rate_tps=1e6, workload="uniform",
                       rate_limit_tps=5e5),
        ]

    def generator(self):
        return LoadGenerator(self.fleet(), PAGES, seed=11,
                             rate_overrides={"quarantined": 1e5})

    def test_mixed_fleet_schedule_is_bit_identical(self):
        schedule, accounting = self.generator().generate(self.DURATION_S)
        # Every shape contributes, and all three throttles bite.
        for name in ("tpca", "limited", "quarantined"):
            assert accounting[name]["throttled"] > 0
        self.check(schedule, accounting)

    @pytest.mark.parametrize("rows", [1, 7, 10 ** 9])
    def test_any_window_size_draws_the_pinned_schedule(self, rows):
        """Columns drawn a row, seven rows or the whole run at a time
        concatenate to the same schedule with the same accounting."""
        with windowed(rows):
            windows, accounting = self.generator().stream(self.DURATION_S)
            sizes, schedule = [], []
            for window in windows:
                sizes.append(len(window))
                schedule += window
        assert (len(sizes) == 1) == (rows == 10 ** 9)
        # A window is an arrival-time range, so `rows` is its mean size.
        assert rows == 10 ** 9 or sum(sizes) / len(sizes) < 4 * rows
        self.check(schedule, accounting)


@st.composite
def tenant_runs(draw):
    """Per-tenant request runs as ``generate`` builds them: arrivals
    non-decreasing (drawn from a narrow range, so ties within and
    across tenants are the norm), ``seq`` strictly increasing with gaps
    where the token bucket dropped a row."""
    runs = []
    for tenant in range(draw(st.integers(1, 6))):
        arrivals = sorted(draw(st.lists(st.integers(0, 12), max_size=30)))
        seq = -1
        run = []
        for arrival in arrivals:
            seq += draw(st.integers(1, 3))
            run.append((arrival, tenant, seq, draw(st.booleans()),
                        draw(st.integers(0, 511))))
        runs.append(run)
    return runs


class TestMerge:
    @given(tenant_runs())
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sorting_the_concatenation_is_the_k_way_merge(self, runs):
        """``heapq.merge`` is the reference the single sort replaced."""
        concatenated = [row for run in runs for row in run]
        concatenated.sort()
        assert concatenated == list(heapq.merge(*runs))


class TestRateLimit:
    def test_token_bucket_throttles_at_generation(self):
        spec = TenantSpec("lim", rate_tps=1e7, rate_limit_tps=1e6,
                          burst=16.0)
        schedule, acct = gen([spec]).generate(0.0005)
        assert acct["lim"]["throttled"] > 0
        assert len(schedule) == (acct["lim"]["offered"]
                                 - acct["lim"]["throttled"])
        # Admitted load is near the limit: ~1e6/s * 0.5 ms = ~500 plus
        # the initial burst.
        assert len(schedule) < 1000

    def test_throttling_is_deterministic(self):
        spec = TenantSpec("lim", rate_tps=1e7, rate_limit_tps=1e6)
        first = gen([spec]).generate(0.0005)
        second = gen([spec]).generate(0.0005)
        assert first == second


class TestClosedLoop:
    def test_closed_loop_population_bounds_arrivals(self):
        spec = TenantSpec("cl", mode="closed", clients=4,
                          think_ns=10_000, service_estimate_ns=200)
        schedule, acct = gen([spec]).generate(0.001)
        assert acct["cl"]["offered"] == len(schedule)
        # 4 clients cycling every ~10.2us for 1 ms -> ~392 requests;
        # the exponential think time spreads this but the population
        # caps it well below an open-loop flood.
        assert 100 < len(schedule) < 1200

    def test_closed_loop_deterministic(self):
        spec = TenantSpec("cl", mode="closed", clients=3,
                          think_ns=5_000)
        assert gen([spec]).generate(0.0005) == \
            gen([spec]).generate(0.0005)


class TestTpca:
    def test_transactions_expand_to_multiple_accesses(self):
        spec = TenantSpec("t", rate_tps=1e4, workload="tpca")
        schedule, acct = gen([spec]).generate(0.001)
        arrivals = {arrival for arrival, _, _, _, _ in schedule}
        # Each arrival is one transaction carrying many accesses.
        assert len(schedule) > len(arrivals) * 5
        writes = sum(1 for _, _, _, is_write, _ in schedule if is_write)
        assert 0 < writes < len(schedule)


class TestValidation:
    def test_empty_tenants_rejected(self):
        with pytest.raises(ValueError):
            LoadGenerator([], PAGES)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LoadGenerator([TenantSpec("a"), TenantSpec("a")], PAGES)

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            gen([TenantSpec("a")]).generate(0.0)

    def test_page_range_past_the_space_rejected_at_construction(self):
        tenants = [TenantSpec("ok"),
                   TenantSpec("wide", page_range=(256, PAGES + 1))]
        with pytest.raises(ValueError, match=r"tenant 'wide' page_range "
                           r"\(256, 513\) exceeds the 512-page"):
            LoadGenerator(tenants, PAGES)
        # The whole space is a legal range.
        LoadGenerator([TenantSpec("full", page_range=(0, PAGES))], PAGES)

    @pytest.mark.parametrize("timing", [
        dict(think_ns=-1), dict(service_estimate_ns=-1),
        dict(think_ns=0, service_estimate_ns=0)],
        ids=["negative-think", "negative-estimate", "zero-sum"])
    def test_closed_loop_clock_must_advance(self, timing):
        """A client whose think time and service estimate sum to zero
        never reaches the end of the run: refused, not hung."""
        spec = TenantSpec("c", mode="closed", clients=2, **timing)
        with pytest.raises(ValueError, match="clock must advance"):
            LoadGenerator([spec], PAGES)

    @pytest.mark.parametrize("skew", [float("nan"), float("inf")])
    def test_non_finite_skew_rejected(self, skew):
        with pytest.raises(ValueError, match="skew must be finite"):
            LoadGenerator([TenantSpec("a", skew=skew)], PAGES)
        with pytest.raises(ValueError, match="skew must be finite"):
            TenantSpec.parse(f"name=a,skew={skew}")


def windowed(rows):
    """Shrink (or blow up) the stream's windows for one ``with`` block."""
    return mock.patch.object(loadgen, "WINDOW_ROWS", rows)


@st.composite
def tenant_mixes(draw):
    """A steady anchor tenant (so windows are never all empty) plus up to
    four tenants over every workload kind, arrival mode, churn, bursts,
    token buckets and rate overrides."""
    duration_s = 0.0004
    specs = [TenantSpec("anchor", rate_tps=1e6, write_fraction=0.3)]
    overrides = {}
    for index in range(draw(st.integers(0, 4))):
        name = f"t{index}"
        kind = draw(st.sampled_from(["zipf", "uniform", "tpca", "hammer",
                                     "squat", "clean_amp"]))
        kwargs = dict(workload=kind,
                      rate_tps=draw(st.sampled_from([3e5, 1e6, 3e6])),
                      write_fraction=draw(st.sampled_from([0.0, 0.4, 1.0])))
        if kind == "tpca":
            kwargs["rate_tps"] = draw(st.sampled_from([2e4, 1e5]))
        elif draw(st.booleans()):
            start = draw(st.integers(0, PAGES - 64))
            kwargs["page_range"] = (start, start + draw(
                st.integers(1, PAGES - start)))
        if draw(st.booleans()):
            kwargs.update(mode="closed", clients=draw(st.integers(1, 4)),
                          think_ns=draw(st.sampled_from([4_000, 30_000])))
        elif draw(st.booleans()):
            kwargs.update(burst_every_s=duration_s / 3,
                          burst_s=duration_s / 12,
                          burst_x=draw(st.sampled_from([0.5, 4.0])))
        if draw(st.booleans()):
            kwargs.update(rate_limit_tps=draw(st.sampled_from([1e5, 1e6])),
                          burst=draw(st.sampled_from([1.0, 16.0])))
        churn = draw(st.sampled_from(["stay", "late", "early", "both"]))
        if churn in ("late", "both"):
            kwargs["arrive_s"] = duration_s * draw(
                st.sampled_from([0.2, 0.5]))
        if churn in ("early", "both"):
            kwargs["depart_s"] = duration_s * draw(
                st.sampled_from([0.6, 0.9]))
        if draw(st.booleans()):
            overrides[name] = draw(st.sampled_from([5e4, 5e5]))
        specs.append(TenantSpec(name, **kwargs))
    return specs, overrides, duration_s, draw(st.integers(0, 2 ** 20))


class TestStream:
    @given(tenant_mixes(), st.sampled_from([16, 50, 128]))
    @settings(deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.too_slow])
    def test_windows_concatenate_to_the_one_window_schedule(self, mix, rows):
        specs, overrides, duration_s, seed = mix

        def make():
            return LoadGenerator(specs, PAGES, seed=seed,
                                 rate_overrides=overrides or None)

        with windowed(10 ** 9):
            # One window: every tenant drawn to the end, one sort.
            schedule, accounting = make().generate(duration_s)
        with windowed(rows):
            stream, streamed_accounting = make().stream(duration_s)
            windows = list(stream)
        assert len(windows) >= 3
        assert [row for window in windows for row in window] == schedule
        assert streamed_accounting == accounting
        for window in windows:
            assert window and window == sorted(window)
        # Windows are arrival-time ranges: equal instants never straddle.
        for before, after in zip(windows, windows[1:]):
            assert before[-1][0] < after[0][0]

    def test_accounting_is_final_when_stream_returns(self):
        spec = TenantSpec("lim", rate_tps=4e6, rate_limit_tps=1e6)
        with windowed(64):
            windows, accounting = gen([spec]).stream(0.0005)
            counts = dict(accounting["lim"])
            rows = sum(len(window) for window in windows)
        assert accounting["lim"] == counts
        assert counts["throttled"] > 0
        assert counts["offered"] - counts["throttled"] == rows

    @staticmethod
    def mean_window(tenants):
        with windowed(100):
            sizes = [len(window)
                     for window in gen(tenants).stream(0.002)[0]]
        assert len(sizes) >= 3
        return sum(sizes) / len(sizes)

    def test_window_size_does_not_scale_with_the_tenants(self):
        """Windows target WINDOW_ROWS rows whatever the tenant count:
        idle tenants cost nothing, and doubling the tenants at the same
        total rate does not grow the window."""
        fleet = [TenantSpec(f"t{i}", rate_tps=2e5) for i in range(100)]
        idle = [TenantSpec(f"late{i}", rate_tps=2e5, arrive_s=1.0)
                for i in range(300)]
        mean = self.mean_window(fleet + idle)
        assert 0.7 * 100 < mean < 1.3 * 100
        doubled = [TenantSpec(f"t{i}", rate_tps=1e5) for i in range(200)]
        assert self.mean_window(doubled + idle) <= 1.1 * mean

    def test_arrivals_are_packed(self):
        """Arrivals take the narrowest typecode that holds ``end_ns``."""
        generator = gen([TenantSpec("a")])
        for end_ns, typecode in [(200, "B"), (60_000, "H"), (400_000, "I"),
                                 (5 * 10 ** 9, "q")]:
            rate = 2e9 / end_ns * 60   # ~120 arrivals in either mode
            for spec in (TenantSpec("open", rate_tps=rate),
                         TenantSpec("closed", mode="closed", clients=3,
                                    think_ns=max(1, end_ns // 40),
                                    service_estimate_ns=1)):
                arrivals = generator._arrivals(spec, random.Random(1),
                                               end_ns)
                assert isinstance(arrivals, array)
                assert arrivals.typecode == typecode
                assert len(arrivals) > 50
                assert list(arrivals) == sorted(arrivals)
