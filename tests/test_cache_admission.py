"""DRAM read tier + closed-loop admission: transparency and control.

The cache is a *timing* tier: with it on, reads get faster but every
byte served must be identical to the cache-disabled run — after host
writes, cleaner migrations, whole-bank loss (degraded reads), online
rebuild and post-mortem recovery.  The admission controller closes the
loop from observed SLO burn to promote/throttle/shed decisions and must
stay bit-identical across reruns and ``--jobs``.  Both claims are
property-tested here.
"""

import dataclasses

import pytest

from repro.core.costmodel import DRAM_READ_NS
from repro.obs.export import service_prometheus_text
from repro.service import (AdmissionController, EnvyService, PageCache,
                           ServiceConfig, TenantSpec, attack_tenant,
                           run_attack_scenario)
from repro.service.bench import scale_fleet
from repro.service.chaos import run_redundancy_chaos, run_service_chaos
from repro.service.loadgen import LoadGenerator

PAGE_BYTES = 256


# ---------------------------------------------------------------------
# PageCache unit behaviour
# ---------------------------------------------------------------------

class TestPageCache:
    @pytest.mark.parametrize("policy", ["clock", "lru"])
    def test_hit_miss_evict(self, policy):
        cache = PageCache(2, policy)
        assert cache.lookup(1) is None          # cold miss
        cache.admit(1)
        cache.admit(2)
        assert cache.lookup(1) is not None
        evicted = cache.admit(3)                # full: something leaves
        assert evicted is not None
        assert len(cache) == 2
        assert cache.hits == 1 and cache.misses == 1
        assert cache.evictions == 1

    def test_clock_second_chance(self):
        cache = PageCache(2, "clock")
        cache.admit(1)
        cache.admit(2)
        cache.lookup(1)                         # ref bit on page 1
        assert cache.admit(3) == 2              # 1 gets a second chance
        assert 1 in cache and 3 in cache

    def test_lru_recency(self):
        cache = PageCache(2, "lru")
        cache.admit(1)
        cache.admit(2)
        cache.lookup(1)                         # 1 is now most recent
        assert cache.admit(3) == 2
        assert 1 in cache and 3 in cache

    def test_zero_capacity_disables(self):
        cache = PageCache(0)
        assert cache.admit(1) is None
        assert cache.lookup(1) is None
        assert len(cache) == 0

    def test_payloads_and_invalidation(self):
        cache = PageCache(4)
        cache.admit(7, 0, b"old")
        assert cache.lookup(7)[2] == b"old"
        cache.admit(7, 0, b"new")               # re-admit refreshes
        assert cache.lookup(7)[2] == b"new"
        assert cache.invalidate(7) is True
        assert cache.invalidate(7) is False     # already gone
        assert cache.lookup(7) is None
        assert cache.invalidations == 1

    def test_invalidate_all(self):
        cache = PageCache(8)
        for page in range(5):
            cache.admit(page)
        assert cache.invalidate_all() == 5
        assert len(cache) == 0
        assert cache.invalidations == 5
        cache.admit(9)                          # still usable after flush
        assert 9 in cache

    @pytest.mark.parametrize("policy", ["clock", "lru"])
    def test_owner_cap_evicts_own_page(self, policy):
        """A capped owner at its cap displaces *its own* oldest page."""
        cache = PageCache(8, policy, tenant_caps={1: 2})
        cache.admit(100, owner=0)
        cache.admit(1, owner=1)
        cache.admit(2, owner=1)
        assert cache.admit(3, owner=1) == 1     # own oldest, not 100
        assert 100 in cache
        assert cache.owner_occupancy(1) == 2

    @pytest.mark.parametrize("policy", ["clock", "lru"])
    def test_owner_cap_one_readmit_cycle(self, policy):
        """cap=1 repeatedly evicts the owner's only page (regression:
        the owner map is unregistered when it empties and must be
        re-resolved on the next admit)."""
        cache = PageCache(8, policy, tenant_caps={0: 1})
        for page in range(6):
            cache.admit(page, owner=0)
        assert cache.owner_occupancy(0) == 1
        assert 5 in cache
        assert cache.invalidate(5) is True      # the KeyError repro

    def test_squatter_cannot_pin_shared_cache(self):
        """A squat-style owner cycling a huge footprint stays under its
        cap; the small hot owner keeps hitting."""
        cache = PageCache(16, "clock", tenant_caps={1: 4})
        for page in range(4):                   # honest hot set
            cache.admit(page, owner=0)
        for page in range(1000, 1200):          # squatter churns
            cache.admit(page, owner=1)
        assert cache.owner_occupancy(1) == 4
        hits = cache.hits
        for page in range(4):
            assert cache.lookup(page) is not None
        assert cache.hits == hits + 4

    def test_determinism(self):
        def drive():
            cache = PageCache(3, "clock", tenant_caps={2: 1})
            trace = []
            for step in range(200):
                page = (step * 7) % 11
                owner = step % 3
                if step % 5 == 4:
                    trace.append(("inv", cache.invalidate(page)))
                else:
                    trace.append(("adm", cache.admit(page, owner)))
            trace.append(cache.stats())
            return trace

        assert drive() == drive()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PageCache(-1)
        with pytest.raises(ValueError):
            PageCache(4, "fifo")


# ---------------------------------------------------------------------
# Semantic transparency: cached bytes == uncached bytes
# ---------------------------------------------------------------------

def _twin_configs(**kwargs):
    base = ServiceConfig(num_shards=2, num_segments=4,
                         pages_per_segment=16, store_data=True, seed=11,
                         **kwargs)
    cached = dataclasses.replace(base, cache_pages=24)
    return base, cached


def _payload(step, page):
    return bytes([(step * 31 + page * 7 + i) % 251 + 1
                  for i in range(16)])


class TestTransparency:
    def test_reads_byte_identical_through_writes_and_cleaning(self):
        """Interleaved reads/overwrites on twin services; overwrite
        volume forces flushes and cleaner migrations, so the cached twin
        must survive both write- and clean-invalidation."""
        plain_cfg, cached_cfg = _twin_configs()
        plain = EnvyService(plain_cfg, [TenantSpec("t", rate_tps=1e5)])
        cached = EnvyService(cached_cfg, [TenantSpec("t", rate_tps=1e5)])
        pages = plain.router.num_pages
        for step in range(6):
            for page in range(pages):
                data = _payload(step, page)
                plain.write_page(page, data)
                cached.write_page(page, data)
                # Read a trailing window each step so cached entries
                # exist *before* the next overwrite invalidates them.
                probe = (page * 3 + step) % pages
                assert cached.read_page(probe) == plain.read_page(probe)
        for page in range(pages):
            assert cached.read_page(page) == plain.read_page(page)
            # Second read: served from DRAM, still identical.
            assert cached.read_page(page) == plain.read_page(page)
        report = cached.health_report()["cache"]
        assert report["pages_per_shard"] == 24
        assert cached._page_cache.hits > 0
        assert cached._page_cache.invalidations > 0

    def test_degraded_rebuild_and_recovery_with_cache(self):
        """The full whole-bank-loss drill with the tier enabled: kill a
        bank mid-write, serve degraded, rebuild online, recover post
        mortem — every byte-comparison the drill makes must still pass,
        and the topology events must have flushed the cache."""
        config = ServiceConfig(num_shards=3, num_segments=4,
                               pages_per_segment=16, redundancy="mirror",
                               seed=5, cache_pages=32)
        dry = run_redundancy_chaos(config, duration_s=0.0004,
                                   kill_at=None)
        report = run_redundancy_chaos(config, duration_s=0.0004,
                                      victim=1,
                                      kill_at=max(1, dry.ops_seen // 2))
        assert report.interrupted
        assert report.ok, report.checks
        assert report.counts["rebuild_verified"] is True

    def test_redundancy_drill_matches_uncached_run(self):
        """The drill's deterministic outcome summary is identical with
        the cache on and off — the tier changes timing only."""
        base = ServiceConfig(num_shards=3, num_segments=4,
                             pages_per_segment=16, redundancy="parity",
                             seed=5)
        cached = dataclasses.replace(base, cache_pages=32)
        kill_at = max(1, run_redundancy_chaos(
            base, duration_s=0.0004, kill_at=None).ops_seen // 3)
        one = run_redundancy_chaos(base, duration_s=0.0004,
                                   kill_at=kill_at)
        two = run_redundancy_chaos(cached, duration_s=0.0004,
                                   kill_at=kill_at)
        assert one.ok and two.ok
        assert one.ops_seen == two.ops_seen
        assert one.counts == two.counts
        assert one.shards == two.shards

    def test_shard_recovery_with_cache(self):
        """Kill one shard mid-batch with the executor cache active;
        every shard must still rebuild from Flash against its oracle."""
        config = ServiceConfig(num_shards=2, num_segments=4,
                               pages_per_segment=16, seed=3,
                               cache_pages=16)
        dry = run_service_chaos(config, duration_s=0.0004,
                                kill_at=None, recover=False)
        report = run_service_chaos(config, duration_s=0.0004,
                                   kill_at=max(1, dry.ops_seen // 2))
        assert report.ok, report.mismatches


# ---------------------------------------------------------------------
# Closed-loop admission
# ---------------------------------------------------------------------

SLO_TENANTS = [
    dict(name="hot", rate_tps=2e7, skew=1.0, write_fraction=0.2,
         slo_read_p99_ns=200, slo_target=0.999, cache=True),
    dict(name="bg", rate_tps=1e5, workload="uniform",
         write_fraction=0.3),
]


def _admission_service(**overrides):
    config = ServiceConfig(num_shards=2, num_segments=8,
                           pages_per_segment=32, seed=21,
                           cache_pages=64, admission=True, **overrides)
    tenants = [TenantSpec.from_spec(dict(kw)) for kw in SLO_TENANTS]
    return EnvyService(config, tenants)


class TestAdmission:
    def test_ladder_engages_on_burn(self):
        service = _admission_service()
        service.run(0.0005, jobs=1)
        # The 200ns read bound is unmeetable uncached (bus alone is
        # 160ns + queueing), so the saturating tenant burns budget and
        # the controller must act.
        state = service.admission.state("hot")
        assert state != "normal"
        report = service.admission.report()
        assert report["enabled"] is True
        assert report["last_decisions"]

    def test_decisions_deterministic_across_jobs_and_reruns(self):
        outcomes = []
        for jobs in (1, 2, 1):
            service = _admission_service()
            runs = []
            for _ in range(3):
                stats = service.run(0.0004, jobs=jobs)
                runs.append({name: t.as_dict()
                             for name, t in stats.tenants.items()})
            runs.append(service.admission.report())
            outcomes.append(runs)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_promoted_tenant_enters_cache_tier(self):
        tenants = [TenantSpec("a", rate_tps=1e5, cache=True),
                   TenantSpec("b", rate_tps=1e5),
                   TenantSpec("c", rate_tps=1e5, cache=False)]
        controller = AdmissionController(tenants, cache_available=True)
        assert controller.cache_tier() == ["a"]     # pinned only
        controller._state["b"] = "promoted"
        controller._state["c"] = "promoted"
        assert controller.cache_tier() == ["a", "b"]  # opt-out wins

    def test_override_never_relaxes_quarantine(self):
        """Admission overrides merge with quarantine via min(): a lax
        admission rate cannot relax a strict quarantine bucket."""
        strict = _admission_service()
        strict.quarantined["hot"] = 50.0
        merged = _admission_service()
        merged.quarantined["hot"] = 50.0
        merged.admission._rates["hot"] = 1e6
        one = strict.run(0.0004, jobs=1)
        two = merged.run(0.0004, jobs=1)
        assert (one.tenants["hot"].served
                == two.tenants["hot"].served)
        assert (one.tenants["hot"].throttled
                == two.tenants["hot"].throttled)


# ---------------------------------------------------------------------
# Grammar: slo= / cache= / churn fields
# ---------------------------------------------------------------------

class TestTenantGrammar:
    def test_full_grammar_round_trip(self):
        spec = TenantSpec.parse(
            "name=a,rate_tps=2e5,slo=200e3:300e3:0.999,cache=true,"
            "arrive_s=1,depart_s=3,burst_every_s=2,burst_s=0.5,"
            "burst_x=8")
        assert spec.slo_read_p99_ns == 200_000
        assert spec.slo_write_p99_ns == 300_000
        assert spec.slo_target == 0.999
        assert spec.cache is True
        assert spec.arrive_s == 1.0 and spec.depart_s == 3.0
        assert spec.burst_every_s == 2.0
        assert spec.burst_s == 0.5 and spec.burst_x == 8.0

    def test_slo_sugar_partial(self):
        spec = TenantSpec.parse("name=a,slo=150e3")
        assert spec.slo_read_p99_ns == 150_000
        assert spec.slo_write_p99_ns is None

    def test_cache_optout(self):
        assert TenantSpec.parse("name=a,cache=false").cache is False
        assert TenantSpec.parse("name=a").cache is None

    @pytest.mark.parametrize("bad", [
        "name=a,cache=maybe",
        "name=a,arrive_s=-1",
        "name=a,depart_s=0.5,arrive_s=0.9",
        "name=a,burst_every_s=0",
        "name=a,burst_every_s=1,burst_s=2",
        "name=a,burst_every_s=1,burst_s=0.5,burst_x=0",
        "name=a,slo=1:2:3:4",
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            TenantSpec.parse(bad).validate()


# ---------------------------------------------------------------------
# Churn schedules
# ---------------------------------------------------------------------

class TestChurn:
    def _schedule(self, spec, duration=0.002):
        gen = LoadGenerator([spec], num_pages=64, seed=9)
        requests, accounting = gen.generate(duration)
        return requests, accounting

    def test_arrive_depart_window(self):
        spec = TenantSpec("t", rate_tps=1e6, arrive_s=0.0005,
                          depart_s=0.0015)
        requests, _ = self._schedule(spec)
        assert requests
        arrivals = [req[0] for req in requests]
        assert min(arrivals) >= 500_000
        assert max(arrivals) < 1_500_000

    def test_burst_densifies_window(self):
        calm = TenantSpec("t", rate_tps=1e6)
        bursty = TenantSpec("t", rate_tps=1e6, burst_every_s=0.001,
                            burst_s=0.00025, burst_x=8.0)
        calm_n = len(self._schedule(calm)[0])
        burst_n = len(self._schedule(bursty)[0])
        assert burst_n > calm_n * 1.5

    def test_legacy_specs_bit_identical(self):
        """A churn-free spec draws the same schedule as before the
        churn fields existed (same RNG stream, same tuples)."""
        plain = TenantSpec("t", rate_tps=5e5, skew=0.8)
        one = self._schedule(plain)
        two = self._schedule(TenantSpec("t", rate_tps=5e5, skew=0.8,
                                        arrive_s=0.0, depart_s=None))
        assert one == two

    def test_churn_deterministic(self):
        spec = TenantSpec("t", rate_tps=1e6, arrive_s=0.0003,
                          burst_every_s=0.001, burst_s=0.0002)
        assert self._schedule(spec) == self._schedule(spec)


# ---------------------------------------------------------------------
# Adversary: cache cannot be pinned, detector stays clean
# ---------------------------------------------------------------------

ADV_CONFIG = ServiceConfig(num_shards=2, num_segments=12,
                           pages_per_segment=16, seed=7,
                           cache_pages=32, cache_tenant_cap=0.5)
ADV_HONEST = [
    TenantSpec("zipfy", rate_tps=1.5e5, skew=1.1, write_fraction=0.4),
    TenantSpec("uni", rate_tps=1e5, workload="uniform",
               write_fraction=0.4),
]


class TestAdversaryWithCache:
    def test_squat_attack_flagged_no_false_positives(self):
        attacker = attack_tenant("squat", ADV_CONFIG, rate_tps=2e5)
        scenario = run_attack_scenario(ADV_CONFIG, ADV_HONEST, attacker,
                                       0.01, jobs=1)
        assert "attacker" in scenario["attack"]["flagged"]
        for phase in ("baseline", "attack", "mitigated"):
            flagged = set(scenario[phase]["flagged"])
            assert not flagged & {"zipfy", "uni"}

    def test_honest_hits_survive_squatter(self):
        """With the per-tenant occupancy cap, the zipf tenant keeps a
        useful hit rate even while a squatter churns its footprint."""
        attacker = attack_tenant("squat", ADV_CONFIG, rate_tps=2e5,
                                 write_fraction=0.0)
        service = EnvyService(ADV_CONFIG, ADV_HONEST + [attacker])
        stats = service.run(0.01, jobs=1)
        honest = stats.tenants["zipfy"]
        assert honest.cache_hits > 0
        # The squatter's reads still mostly miss: its footprint cycles
        # far beyond its occupancy cap (occupancy itself is proved at
        # the PageCache unit level above).
        squat = stats.tenants["attacker"]
        probes = squat.cache_hits + squat.cache_misses
        if probes:
            assert squat.cache_hits / probes < 0.9


# ---------------------------------------------------------------------
# Reporting surfaces and bench plumbing
# ---------------------------------------------------------------------

class TestReporting:
    def test_health_report_and_prometheus(self):
        service = _admission_service()
        # "hot" is pinned (cache=True), so the tier is live from run 1.
        stats = service.run(0.0004, jobs=1)
        report = service.health_report()
        cache = report["cache"]
        assert cache["policy"] == "clock"
        assert cache["hit_ns"] == DRAM_READ_NS
        assert cache["hits"] + cache["misses"] > 0
        assert report["admission"]["enabled"] is True
        text = service_prometheus_text(
            stats, slo=service.slo.report(),
            admission=service.admission.report())
        assert "envy_cache_requests_total" in text
        assert 'outcome="hit"' in text
        assert "envy_cache_hit_rate" in text
        assert "envy_admission_state" in text
        assert "envy_admission_rate_tps" in text

    def test_prometheus_silent_without_cache(self):
        config = ServiceConfig(num_shards=2, num_segments=4,
                               pages_per_segment=16, seed=2)
        service = EnvyService(config,
                              [TenantSpec("t", rate_tps=1e5)])
        stats = service.run(0.0004, jobs=1)
        text = service_prometheus_text(stats)
        assert "envy_cache" not in text
        assert "envy_admission" not in text


class TestBenchScale:
    def test_serial_and_parallel_fleet_runs_agree(self):
        """A serial run records into the tenants' own histograms; a
        ``jobs=2`` run merges its workers' shipped pairs into them.  Two
        back-to-back runs (the second under the first's admission
        decisions, which a noisy neighbour makes nontrivial) agree down
        to every histogram bucket."""
        def serve(jobs):
            config = ServiceConfig(num_shards=2, num_segments=8,
                                   pages_per_segment=32, seed=13,
                                   cache_pages=64, cache_tenant_cap=0.25,
                                   admission=True)
            service = EnvyService(config, [
                TenantSpec.from_spec(spec)
                for spec in scale_fleet(40, 0.004) + [dict(
                    name="noisy", rate_tps=5e6, write_fraction=0.3)]])
            runs = []
            for _ in range(2):
                stats = service.run(0.004, jobs=jobs)
                runs.append((stats.as_dict(), {
                    name: (t.read_latency.state_dict(),
                           t.write_latency.state_dict())
                    for name, t in stats.tenants.items()}))
            return runs, service.admission.report()["states"]

        serial, parallel = serve(1), serve(2)
        assert serial == parallel
        runs, states = serial
        assert len(set(states.values())) > 1
        assert all(reads["count"] + writes["count"]
                   for reads, writes in runs[1][1].values())

    def test_fleet_is_pure_and_shaped(self):
        fleet = scale_fleet(1000, 0.002)
        assert fleet == scale_fleet(1000, 0.002)
        assert len(fleet) == 1000
        assert len({t["name"] for t in fleet}) == 1000
        assert sum(1 for t in fleet if "slo_read_p99_ns" in t) == 100
        assert sum(1 for t in fleet if "arrive_s" in t) == 100
        assert sum(1 for t in fleet if "depart_s" in t) == 100
        assert sum(1 for t in fleet if "burst_every_s" in t) == 100
        assert sum(1 for t in fleet if t.get("cache") is True) == 40
        assert sum(1 for t in fleet if t.get("cache") is False) == 40
        for kwargs in fleet[:50]:
            TenantSpec.from_spec(dict(kwargs)).validate()
