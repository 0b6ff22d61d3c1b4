"""Tests for the sharded service core: router, tenants, determinism."""

import dataclasses
import sys
import tracemalloc
from collections import Counter
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (EnvyService, LoadGenerator,
                           ServiceConfig, ShardRouter, TenantSpec,
                           TokenBucket)
from repro.service import frontend, loadgen
from repro.service.bench import scale_fleet
from repro.service.executor import build_shard_controller
from repro.service.frontend import ServiceStats

from .test_service_loadgen import windowed

SMALL = ServiceConfig(num_shards=2, num_segments=8, pages_per_segment=32,
                      seed=13)
TENANTS = [
    TenantSpec("hot", rate_tps=1.2e7, skew=1.0, write_fraction=0.3),
    TenantSpec("limited", rate_tps=4e6, workload="uniform",
               rate_limit_tps=1e6),
]
DURATION = 0.0002


class TestShardRouter:
    def test_striped_partition_is_a_bijection(self):
        router = ShardRouter(num_shards=4, pages_per_shard=8)
        seen = set()
        for page in range(router.num_pages):
            shard, local = router.route(page)
            assert router.global_page(shard, local) == page
            seen.add((shard, local))
        assert len(seen) == router.num_pages

    def test_striping_spreads_contiguous_ranges(self):
        router = ShardRouter(num_shards=4, pages_per_shard=64)
        shards = [router.route(page)[0] for page in range(8)]
        assert shards == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_address_routing(self):
        router = ShardRouter(num_shards=2, pages_per_shard=4,
                             page_bytes=256)
        assert router.total_bytes == 8 * 256

    def test_out_of_range_pages_raise(self):
        router = ShardRouter(num_shards=2, pages_per_shard=4)
        with pytest.raises(IndexError):
            router.route(8)
        with pytest.raises(IndexError):
            router.route(-1)
        with pytest.raises(IndexError):
            router.global_page(2, 0)
        with pytest.raises(IndexError):
            router.global_page(0, 4)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(0, 4)
        with pytest.raises(ValueError):
            ShardRouter(2, 0)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_per_s=1e9, burst=2.0)  # 1 token/ns
        assert bucket.allow(0)
        assert bucket.allow(0)
        assert not bucket.allow(0)  # burst exhausted
        assert bucket.allow(1)      # one token refilled after 1 ns
        assert bucket.allowed == 3
        assert bucket.throttled == 1

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=1e9, burst=3.0)
        for _ in range(3):
            assert bucket.allow(0)
        # A long gap refills to burst, not beyond.
        for _ in range(3):
            assert bucket.allow(10_000)
        assert not bucket.allow(10_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(-5.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0.5)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_refused(self, rate):
        """A NaN rate passes a ``<= 0`` check and its bucket then admits
        everything (every refill comparison is False)."""
        with pytest.raises(ValueError, match="positive and finite"):
            TokenBucket(rate)

    def test_burst_exceeding_offered_load_never_throttles(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1000.0)
        assert all(bucket.allow(t) for t in range(100))
        assert bucket.throttled == 0

    def test_trickle_rate_throttles_between_refills(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1.0)  # 1 token/s
        assert bucket.allow(0)
        assert not bucket.allow(500_000_000)   # half a second: no token
        assert bucket.allow(1_000_000_000)
        assert bucket.throttled == 1


class TestTenantSpec:
    def test_validation_catches_bad_specs(self):
        for bad in (TenantSpec(""), TenantSpec("a", workload="lru"),
                    TenantSpec("a", mode="sideways"),
                    TenantSpec("a", rate_tps=0.0),
                    TenantSpec("a", write_fraction=1.5),
                    TenantSpec("a", rate_limit_tps=0.0),
                    TenantSpec("a", page_range=(-1, 4)),
                    TenantSpec("a", page_range=(8, 8)),
                    TenantSpec("a", workload="tpca",
                               page_range=(0, 16))):
            with pytest.raises(ValueError):
                bad.validate()

    def test_bucket_only_when_limited(self):
        assert TenantSpec("a").make_bucket() is None
        assert TenantSpec("a", rate_limit_tps=10.0).make_bucket()

    def test_single_shard_tenant_stays_on_its_bank(self):
        config = ServiceConfig(num_shards=2, num_segments=8,
                               pages_per_segment=32, placement="ranged",
                               seed=13)
        solo = TenantSpec("solo", rate_tps=6e6, write_fraction=0.3,
                          page_range=(0, config.pages_per_shard),
                          scatter=False)
        stats = EnvyService(config, [solo]).run(DURATION)
        assert stats.shards[0]["accesses"] > 0
        assert stats.shards[1]["accesses"] == 0


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(num_shards=0).validate()
        with pytest.raises(ValueError):
            ServiceConfig(queue_capacity=0).validate()
        with pytest.raises(ValueError):
            ServiceConfig(soft_watermark=0.99,
                          hard_watermark=0.5).validate()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_quarantine_rate_refused(self, rate):
        with pytest.raises(ValueError, match="quarantine_tps"):
            ServiceConfig(quarantine_tps=rate).validate()
        with pytest.raises(ValueError, match="quarantine_tps"):
            EnvyService(ServiceConfig(quarantine_tps=rate))

    def test_router_matches_shard_geometry(self):
        config = ServiceConfig(num_shards=3, num_segments=8,
                               pages_per_segment=32)
        router = config.make_router()
        assert router.pages_per_shard == config.shard_config().logical_pages
        assert router.num_pages == 3 * config.pages_per_shard

    def test_run_shards_are_built_from_the_shard_config(self):
        config = ServiceConfig(page_bytes=512, prewarm_turnovers=0.0)
        shard = build_shard_controller(config.shard_point_base(), 0)
        assert shard.config == config.shard_config()


class TestServiceStats:
    def test_counters_are_picked_by_type_not_annotation_text(self):
        """``as_dict`` keeps every int / float field, however its
        annotation is spelt (the field types are resolved, not read)."""
        @dataclasses.dataclass
        class Reworded(ServiceStats):
            spare: Optional[int] = 7
            label: str = "x"

        summary = Reworded(num_shards=1, duration_s=0.5).as_dict()
        assert summary["spare"] == 7
        assert "label" not in summary
        # The new counter follows the declared ones, before the four
        # derived keys.
        plain = list(ServiceStats(num_shards=1, duration_s=0.5).as_dict())
        derived = ["accesses_per_simulated_s", "cache_hit_rate", "tenants",
                   "shards"]
        assert plain[-4:] == derived
        assert list(summary) == [*plain[:-4], "spare", *derived]


class TestServiceRun:
    def test_run_serves_and_accounts(self):
        service = EnvyService(SMALL, TENANTS)
        stats = service.run(DURATION, jobs=1)
        assert stats.accesses_served > 0
        assert stats.requests_admitted <= stats.requests_offered
        assert stats.simulated_ns > 0
        # Tenant accounting covers exactly the offered load.
        for tstats in stats.tenants.values():
            assert (tstats.served + tstats.throttled + tstats.rejected
                    <= tstats.offered)
        assert stats.tenants["limited"].throttled > 0
        assert len(stats.shards) == SMALL.num_shards

    def test_same_seed_same_metrics(self):
        first = EnvyService(SMALL, TENANTS).run(DURATION, jobs=1)
        second = EnvyService(SMALL, TENANTS).run(DURATION, jobs=1)
        assert first.as_dict() == second.as_dict()

    def test_jobs_setting_never_changes_results(self):
        serial = EnvyService(SMALL, TENANTS).run(DURATION, jobs=1)
        fanned = EnvyService(SMALL, TENANTS).run(DURATION, jobs=2)
        assert serial.as_dict() == fanned.as_dict()

    def test_different_seed_different_schedule(self):
        other = ServiceConfig(num_shards=2, num_segments=8,
                              pages_per_segment=32, seed=14)
        first = EnvyService(SMALL, TENANTS).run(DURATION, jobs=1)
        second = EnvyService(other, TENANTS).run(DURATION, jobs=1)
        assert first.as_dict() != second.as_dict()

    def test_rejections_counted_in_health_report(self):
        # Saturating load: the bounded queue must reject, and the
        # health report must expose reproducible counts.
        hot = [TenantSpec("flood", rate_tps=1e8, write_fraction=0.5)]
        service = EnvyService(SMALL, hot)
        service.run(DURATION, jobs=1)
        health = service.health_report()
        assert health["last_run"]
        assert health["requests_rejected"] > 0
        assert health["requests_rejected"] == (
            health["requests_rejected_queue"]
            + health["requests_rejected_shed"])
        repeat = EnvyService(SMALL, hot)
        repeat.run(DURATION, jobs=2)
        assert repeat.health_report() == health

    def test_health_report_before_any_run(self):
        health = EnvyService(SMALL, TENANTS).health_report()
        assert health["last_run"] is False
        assert health["num_shards"] == 2

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError):
            EnvyService(SMALL, [TenantSpec("a"), TenantSpec("a")])

    def test_service_events_on_front_bus(self):
        service = EnvyService(SMALL, TENANTS)
        kinds = []
        service.events.subscribe(lambda e: kinds.append(e.kind),
                                 prefix="service.")
        service.run(DURATION, jobs=1)
        assert "service.run" in kinds
        assert kinds.count("service.shard") == SMALL.num_shards


def run_counting_windows(config, tenants=TENANTS, subscribe=False,
                         prepare=None, **run_kwargs):
    """One fresh service run; also how many windows it partitioned."""
    service = EnvyService(config, tenants)
    if prepare is not None:
        prepare(service)
    kinds = []
    if subscribe:
        service.events.subscribe(lambda e: kinds.append((e.kind, e.data)))
    with mock.patch.object(EnvyService, "partition", autospec=True,
                           side_effect=EnvyService.partition) as partition:
        stats = service.run(DURATION, **run_kwargs)
    return service, stats, partition.call_count, kinds


def three_banks(**knobs):
    return ServiceConfig(num_shards=3, num_segments=8, pages_per_segment=32,
                         seed=13, attribute_wear=True, **knobs)


def lose_bank(service):
    service.kill_bank(1)


def replace_lost_bank(service):
    service.kill_bank(1)
    service.replace_bank(1)


#: Every routing the expander serves, plus plain routing (the subscriber
#: alone used to cost the stream): name -> (config, set-up before run).
ROUTINGS = {
    "plain": (three_banks(), None),
    "mirror": (three_banks(redundancy="mirror"), None),
    "parity": (three_banks(redundancy="parity"), None),
    "ranged-remapped": (three_banks(placement="ranged"),
                        lambda service: service.router.swap(3, 200)),
    "dead-bank": (three_banks(redundancy="mirror"), lose_bank),
    # 204 plan entries: at 5e6 pages/s the rebuild is over a fifth of the
    # way into the run, at the default 2e5 the run's budget is 40 entries.
    "rebuild-finishes": (three_banks(redundancy="parity",
                                     rebuild_rate_pps=5e6),
                         replace_lost_bank),
    "rebuild-outlasts-run": (three_banks(redundancy="parity"),
                             replace_lost_bank),
}


class TestStreamedRun:
    """generate -> route -> execute by windows: same results whatever
    the window size, however many processes run the shards."""

    BUSY = ServiceConfig(num_shards=2, num_segments=8, pages_per_segment=32,
                         seed=13, retry_limit=2, queue_capacity=8,
                         cache_pages=32, attribute_wear=True)

    def test_windows_and_jobs_never_change_results_or_traces(self):
        with windowed(10 ** 9):
            whole, expected, windows, _ = run_counting_windows(
                self.BUSY, jobs=1, trace=True)
        assert windows == 1
        assert expected.requests_retried and expected.cache_hits
        for jobs in (1, 2):
            with windowed(128):
                service, stats, windows, _ = run_counting_windows(
                    self.BUSY, jobs=jobs, trace=True)
            assert windows >= 3
            assert stats.as_dict() == expected.as_dict()
            assert stats.segment_programs == expected.segment_programs
            # Same rows in the same order, request ids included.
            assert service.last_trace.to_jsonl() == \
                whole.last_trace.to_jsonl()
        rids = [row["rid"] for row in whole.last_trace.rows]
        assert sorted(set(rids)) == list(range(expected.requests_admitted))

    @pytest.mark.parametrize("trace", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_expanded_routing_and_bus_subscribers_stream(self, routing,
                                                         trace):
        config, prepare = ROUTINGS[routing]
        with windowed(10 ** 9):
            whole, expected, windows, events = run_counting_windows(
                config, subscribe=True, prepare=prepare, jobs=1, trace=trace)
        rebuilding = routing.startswith("rebuild")
        assert windows == 1 + rebuilding    # the rebuild's tail window
        # service.run comes first, and no longer announces a count that
        # is only known once every window has met the token buckets.
        assert events[0] == ("service.run", {"shards": 3, "tenants": 2})
        assert [kind for kind, _ in events[-3:]] == ["service.shard"] * 3
        if routing == "dead-bank":
            assert expected.degraded_reads and expected.degraded_writes
        if rebuilding:
            (progress,) = whole.rebuild_status().values()
            done, total = progress["pages_done"], progress["pages_total"]
            assert (done == total) == (routing == "rebuild-finishes")
            assert 0 < done and expected.rebuild_accesses == 3 * done
            assert ("redundancy.rebuild",
                    {"bank": 1, "pages": done, "done": done,
                     "total": total}) in events
        if trace:
            copies = [row["rid"] for row in whole.last_trace.rows
                      if row["rid"] < 0]
            assert len(set(copies)) == len(copies) \
                == expected.rebuild_accesses
        for jobs in (1, 2):
            with windowed(128):
                service, stats, windows, streamed = run_counting_windows(
                    config, subscribe=True, prepare=prepare, jobs=jobs,
                    trace=trace)
            assert windows >= 3
            assert stats.as_dict() == expected.as_dict()
            assert stats.segment_programs == expected.segment_programs
            assert service.rebuild_status() == whole.rebuild_status()
            assert streamed == events
            if trace:
                assert service.last_trace.to_jsonl() == \
                    whole.last_trace.to_jsonl()

    def test_two_rebuilds_number_their_copy_rows_the_same_in_any_window(
            self):
        """Copy-row rids are numbered bank by bank, so each bank's cursor
        starts where the banks before it will have stopped."""
        config = three_banks(redundancy="mirror:3", rebuild_rate_pps=2e6)

        def lose_two(service):
            for bank in (1, 2):
                service.kill_bank(bank)
                service.replace_bank(bank)

        with windowed(10 ** 9):
            whole, expected, _, _ = run_counting_windows(
                config, prepare=lose_two, jobs=1, trace=True)
        with windowed(128):
            service, stats, _, _ = run_counting_windows(
                config, prepare=lose_two, jobs=1, trace=True)
        assert stats.as_dict() == expected.as_dict()
        assert service.last_trace.to_jsonl() == whole.last_trace.to_jsonl()
        copies = sorted(row["rid"] for row in service.last_trace.rows
                        if row["rid"] < 0)
        assert copies == list(range(-expected.rebuild_accesses, 0))

    def test_expansion_carry_ends_with_the_run(self):
        """The counters and cursors a run carries across its windows
        reach neither the next run nor a bare ``partition()``."""
        config, _ = ROUTINGS["parity"]
        service = EnvyService(config, TENANTS)
        with windowed(128):
            first = service.run(DURATION, jobs=1)
            second = service.run(DURATION, jobs=1)
            fresh = EnvyService(config, TENANTS).run(DURATION, jobs=1)
        assert (first.replica_accesses == second.replica_accesses
                == fresh.replica_accesses > 0)
        assert second.as_dict() == fresh.as_dict()
        schedule, _ = LoadGenerator(TENANTS, service.router.num_pages,
                                    seed=config.seed).generate(DURATION)
        for _ in range(2):
            slices = service.partition(schedule[:64], with_rids=True)
            counted = service._last_expansion["replica_accesses"]
            assert 0 < counted == sum(map(len, slices)) - 64
            assert {rid for rids in service._last_rids
                    for rid in rids} == set(range(64))

    @given(st.sampled_from([16, 50, 128]),
           st.sampled_from(
               [("ranged", "remapped")]
               + [(redundancy, bank_state)
                  for redundancy in ("mirror", "mirror:3", "parity")
                  for bank_state in ("healthy", "dead", "rebuilding")]),
           st.integers(0, 2 ** 20))
    @settings(max_examples=40)
    def test_window_slices_concatenate_to_the_one_window_slices(
            self, rows, routing, seed):
        redundancy, bank_state = routing
        if redundancy == "ranged":
            service = EnvyService(three_banks(placement="ranged"), TENANTS)
            service.router.swap(3, 200)
        else:
            service = EnvyService(three_banks(redundancy=redundancy),
                                  TENANTS)
        if bank_state in ("dead", "rebuilding"):
            service.kill_bank(1)
            if bank_state == "rebuilding":
                service.replace_bank(1)
        generator = LoadGenerator(TENANTS, service.router.num_pages,
                                  seed=seed)
        with windowed(10 ** 9):
            schedule, _ = generator.generate(DURATION)
        expected = service.partition(schedule, with_rids=True)
        expected_rids = service._last_rids
        totals = service._last_expansion
        with windowed(rows):
            windows = list(generator.stream(DURATION)[0])
        assert len(windows) >= 3
        slices = [[] for _ in expected]
        rids = [[] for _ in expected]
        counters = dict.fromkeys(totals, 0)
        admitted = 0
        for window in windows:
            parts = service.partition(window, with_rids=True,
                                      rid_base=admitted)
            admitted += len(window)
            for shard, part in enumerate(parts):
                slices[shard] += part
                rids[shard] += service._last_rids[shard]
            for name, count in service._last_expansion.items():
                counters[name] += count
        assert (slices, rids, counters) == (expected, expected_rids, totals)

    @staticmethod
    def peak_memory(config, tenants, duration_s, prepare=None):
        """tracemalloc's peak over one serial run, and the run's stats."""
        service = EnvyService(config, tenants)
        if prepare is not None:
            prepare(service)
        tracemalloc.start()
        try:
            stats = service.run(duration_s, jobs=1)
            return tracemalloc.get_traced_memory()[1], stats
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_scale_with_run_length(self):
        """Doubling the run doubles the rows but not the peak: what is
        live is the shards, one window, and 8 bytes per arrival (a row
        held as tuples, as the whole schedule used to be, is ~300)."""
        config = ServiceConfig(num_shards=4, num_segments=16,
                               pages_per_segment=64, seed=13)
        heavy = [TenantSpec("reader", rate_tps=2.5e7, write_fraction=0.0)]
        with windowed(1024):
            # Shared Zipf tables are built (and kept) once.
            self.peak_memory(config, heavy, 0.0001)
            short, stats = self.peak_memory(config, heavy, 0.0004)
            long, doubled = self.peak_memory(config, heavy, 0.0008)
        extra_rows = doubled.requests_admitted - stats.requests_admitted
        assert extra_rows > 9_000
        assert long <= 1.3 * short
        assert long - short <= 32 * extra_rows

    def test_fleet_peak_memory_holds_no_tenant_state(self):
        """A 1000-tenant run draws each tenant once into packed columns
        and frees its generators: tracemalloc's peak here was 16.1 MB
        while every tenant kept a cursor and every window held 64 rows
        per tenant, and is 8.6 MB drawn tenant at a time (CPython
        3.11)."""
        config = ServiceConfig(num_shards=4, num_segments=32,
                               pages_per_segment=64, seed=7,
                               cache_pages=512, cache_tenant_cap=0.25,
                               admission=True)
        fleet = [TenantSpec.from_spec(spec)
                 for spec in scale_fleet(1000, 0.001)]
        peak, stats = self.peak_memory(config, fleet, 0.001)
        assert stats.requests_admitted > 5_000
        assert peak < 12e6

    @pytest.mark.parametrize("knobs, prepare", [
        ({"redundancy": "parity"}, None),
        ({"redundancy": "mirror"}, lose_bank),
        ({}, lambda service: service.events.subscribe(lambda event: None)),
    ], ids=["parity", "mirror-dead-bank", "bus-subscriber"])
    def test_peak_memory_does_not_scale_with_run_length_off_the_plain_path(
            self, knobs, prepare):
        """The runs that held the whole schedule and its expansion until
        the expander took windows: each was O(requests)."""
        config = ServiceConfig(num_shards=4, num_segments=16,
                               pages_per_segment=64, seed=13, **knobs)
        mixed = [TenantSpec("mixed", rate_tps=2.5e7, write_fraction=0.05)]
        with windowed(1024):
            self.peak_memory(config, mixed, 0.0001, prepare)
            short, stats = self.peak_memory(config, mixed, 0.0004, prepare)
            long, doubled = self.peak_memory(config, mixed, 0.0008, prepare)
        assert doubled.requests_admitted - stats.requests_admitted > 9_000
        assert long <= 1.3 * short


class TestDirectAccess:
    def test_read_write_route_through_shards(self):
        config = ServiceConfig(num_shards=2, num_segments=4,
                               pages_per_segment=16, store_data=True,
                               prewarm_turnovers=0.0)
        service = EnvyService(config)
        service.write_page(3, b"page three")
        service.write_page(4, b"page four")
        assert service.read_page(3).startswith(b"page three")
        assert service.read_page(4).startswith(b"page four")
        # Page 3 is odd -> shard 1; page 4 even -> shard 0.
        assert service.shard(1).metrics.writes >= 1
        assert service.shard(0).metrics.writes >= 1

    def test_oversized_write_rejected(self):
        service = EnvyService(ServiceConfig(num_shards=2, num_segments=4,
                                            pages_per_segment=16))
        with pytest.raises(ValueError):
            service.write_page(0, b"x" * 257)

    def test_shard_index_checked(self):
        service = EnvyService(ServiceConfig(num_shards=2, num_segments=4,
                                            pages_per_segment=16))
        with pytest.raises(IndexError):
            service.shard(2)

class TestPerTenantCost:
    """A tenant costs what its traffic costs: draws once per service,
    nothing per idle tenant, histograms only for real tenants."""

    FLEET = ServiceConfig(num_shards=4, num_segments=16,
                          pages_per_segment=32, cache_pages=64,
                          cache_tenant_cap=0.25, admission=True, seed=3)
    RUN_S = 0.002

    def fleet(self, idle=0):
        specs = [TenantSpec.from_spec(spec)
                 for spec in scale_fleet(200, self.RUN_S)]
        # Arriving at the run's end: never a row.
        return specs + [TenantSpec(f"idle{index:04d}", arrive_s=self.RUN_S)
                        for index in range(idle)]

    def second_run_events(self, tenants):
        service = EnvyService(self.FLEET, tenants)
        service.run(self.RUN_S, jobs=1)
        events = Counter()

        def profile(frame, event, arg):
            events[event] += 1

        sys.setprofile(profile)
        try:
            service.run(self.RUN_S, jobs=1)
        finally:
            sys.setprofile(None)
        return events["call"] + events["c_call"]

    def test_an_idle_tenant_costs_at_most_forty_calls_a_run(self):
        busy = self.second_run_events(self.fleet())
        with_idle = self.second_run_events(self.fleet(idle=1000))
        assert (with_idle - busy) / 1000 <= 40

    def test_a_rerun_draws_nothing_and_matches_a_fresh_draw(self):
        """Run 2 on one service equals run 2 with the draw memo cleared
        (stats, admission and SLO reports), a quarantine between the
        runs included; it draws nothing unless the duration changes."""
        tenants = [TenantSpec.from_spec(spec)
                   for spec in scale_fleet(40, self.RUN_S)]
        # One tenant throttled by its own bucket, one to be quarantined.
        tenants[7] = dataclasses.replace(tenants[7], rate_tps=1e5,
                                         rate_limit_tps=2e4, burst=8.0)
        tenants[3] = dataclasses.replace(tenants[3], rate_tps=1e5)

        def draws(service, duration_s):
            with mock.patch.object(loadgen.LoadGenerator, "_draw",
                                   autospec=True,
                                   side_effect=loadgen.LoadGenerator._draw
                                   ) as draw:
                stats = service.run(duration_s, jobs=1)
            return stats, draw.call_count

        def two_runs(clear_memo):
            service = EnvyService(self.FLEET, tenants)
            first = service.run(self.RUN_S, jobs=1)
            service.quarantine(tenants[3].name, rate_tps=3e3)
            if clear_memo:
                service._load_generator()._drawn.clear()
            second, drawn = draws(service, self.RUN_S)
            reports = (first.as_dict(), second.as_dict(),
                       service.admission.report(), service.slo.report())
            return reports, drawn, service

        (memo, memo_draws, service), (cleared, cleared_draws, _) = (
            two_runs(False), two_runs(True))
        assert memo == cleared
        assert memo[0]["tenants"][tenants[7].name]["throttled"] > 0
        assert memo[1]["tenants"][tenants[3].name]["throttled"] > 0
        assert memo_draws == 0 and cleared_draws == len(tenants)
        # Another duration draws every tenant anew, and keeps only those.
        assert draws(service, self.RUN_S / 2)[1] == len(tenants)
        assert draws(service, self.RUN_S / 2)[1] == 0
        assert len(service._load_generator()._drawn) == len(tenants)

    def test_pseudo_tenants_count_rows_but_record_none(self):
        """On a parity run every executor records into the real
        tenants' own histograms and nothing else: no histogram object
        appears twice in one executor's list, and pseudo-tenants have
        none, yet their rows are counted as overhead."""
        config = ServiceConfig(num_shards=3, num_segments=8,
                               pages_per_segment=32, seed=13,
                               redundancy="parity")
        executors = []

        def keep(point):
            executors.append(frontend_shard_executor(point))
            return executors[-1]

        frontend_shard_executor = frontend.shard_executor
        service = EnvyService(config, TENANTS)
        with mock.patch.object(frontend, "shard_executor", side_effect=keep):
            stats = service.run(DURATION, jobs=1)
        parallel = EnvyService(config, TENANTS).run(DURATION, jobs=2)
        own = [hist for tstats in stats.tenants.values()
               for hist in (tstats.read_latency, tstats.write_latency)]
        for executor in executors:
            real, pseudo = (executor.latency[:len(TENANTS)],
                            executor.latency[len(TENANTS):])
            hists = [hist for pair in real for hist in pair]
            assert len(set(map(id, hists))) == len(hists)
            assert [id(hist) for hist in hists] == list(map(id, own))
            assert pseudo == [None, None]
        assert stats.replica_accesses > 0
        # Served pseudo-tenant rows: counted (some were refused).
        assert 0 < sum(shard["overhead_accesses"]
                       for shard in stats.shards) <= stats.replica_accesses
        # The real tenants' histograms are what the worker processes'
        # fresh pairs merge to.
        for name, tstats in stats.tenants.items():
            for op in ("read_latency", "write_latency"):
                assert getattr(tstats, op).state_dict() == \
                    getattr(parallel.tenants[name], op).state_dict()
            assert tstats.read_latency.count == tstats.reads
            assert tstats.write_latency.count == tstats.writes
