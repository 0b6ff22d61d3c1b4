"""Adversarial multi-tenancy: attribution, detection, mitigation.

The attack workloads, the per-tenant wear attribution they are judged
by, and the quarantine/budget/scatter defenses all live on the same
determinism contract as the rest of the service: every number here is
a pure function of ``(config, tenants, duration, seed)``.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EnvyConfig
from repro.core.lifetime import LifetimeEstimate, estimate_lifetime
from repro.core.metrics import wear_concentration
from repro.service import (ATTACK_KINDS, AttackDetector, EnvyService,
                           ServiceConfig, TenantSpec, attack_tenant,
                           project_lifetime, run_attack_scenario)
from repro.service.frontend import _canonical_report
from repro.service.executor import TENANT_COUNTERS
from repro.service.tenant import TenantStats, field_types, merge_columns

CONFIG = ServiceConfig(num_shards=2, num_segments=12,
                       pages_per_segment=16, seed=7)
HONEST = [
    TenantSpec("zipfy", rate_tps=1.5e5, skew=1.1, write_fraction=0.4),
    TenantSpec("uni", rate_tps=1e5, workload="uniform",
               write_fraction=0.4),
]
DURATION = 0.01


def _attributed(tenants, duration=DURATION, jobs=1, **config_overrides):
    config = dataclasses.replace(CONFIG, attribute_wear=True,
                                 **config_overrides)
    service = EnvyService(config, tenants)
    stats = service.run(duration, jobs=jobs)
    return service, stats


class TestAttribution:
    def test_wear_stats_populated_per_tenant(self):
        service, stats = self._run = _attributed(HONEST)
        for spec in HONEST:
            wear = stats.tenants[spec.name].wear
            assert wear["flushes"] > 0
            assert wear["page_writes"]
            assert wear["residency_ns"] > 0
            assert wear["residency_windows"]
        assert stats.segment_programs
        # Attribution keys are global: every page key routes back to a
        # (shard, local) pair and every segment key names its shard.
        for key in stats.segment_programs:
            assert key.startswith("s") and ":p" in key

    def test_attribution_is_observational(self):
        """Timings and counters are bit-identical with attribution on
        or off — it only *adds* the wear block."""
        plain = EnvyService(CONFIG, HONEST).run(DURATION, jobs=1)
        _, attributed = _attributed(HONEST)
        base, extra = plain.as_dict(), attributed.as_dict()
        for name in base["tenants"]:
            stripped = dict(extra["tenants"][name])
            stripped.pop("wear", None)
            assert stripped == base["tenants"][name]
        assert base["shards"] == extra["shards"]

    def test_flush_attribution_accounts_for_shard_totals(self):
        """Every flush of a tenant-written page is attributed; the only
        unowned flushes are pages the untimed prewarm left in the SRAM
        buffer, bounded by the buffers' capacity."""
        _, stats = _attributed(HONEST)
        attributed = sum(t.wear["flushes"]
                         for t in stats.tenants.values())
        total = sum(s["flushes"] for s in stats.shards)
        prewarm_leftovers = (CONFIG.num_shards
                             * CONFIG.pages_per_segment)
        assert attributed <= total
        assert total - attributed <= prewarm_leftovers

    def test_deterministic_across_reruns_and_jobs(self):
        baseline = _attributed(HONEST)[1].as_dict()
        assert _attributed(HONEST)[1].as_dict() == baseline
        assert _attributed(HONEST, jobs=2)[1].as_dict() == baseline


class TestDetector:
    def test_honest_mix_has_zero_false_positives(self):
        service, _ = _attributed(HONEST)
        report = service.detect_attacks()
        assert report["flagged"] == []

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_each_attack_kind_is_flagged_by_name(self, kind):
        attacker = attack_tenant(kind, CONFIG, rate_tps=1.5e5)
        service, _ = _attributed(HONEST + [attacker])
        report = service.detect_attacks()
        assert "attacker" in report["flagged"]
        # Detection never comes at the price of smearing blame.
        assert not set(report["flagged"]) & {t.name for t in HONEST}

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_attack_schedules_replay_bit_identically(self, kind):
        attacker = attack_tenant(kind, CONFIG, rate_tps=1.5e5)
        runs = [_attributed(HONEST + [attacker], jobs=jobs)[1].as_dict()
                for jobs in (1, 1, 2)]
        assert runs[0] == runs[1] == runs[2]

    def test_detection_lands_in_health_report_security(self):
        attacker = attack_tenant("targeted-wear", CONFIG, rate_tps=1.5e5)
        service, _ = _attributed(HONEST + [attacker])
        service.detect_attacks()
        security = service.health_report()["security"]
        assert security["flagged"] == ["attacker"]

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(ValueError):
            attack_tenant("rowhammer")


class TestMitigation:
    def test_quarantine_throttles_at_schedule_time(self):
        attacker = attack_tenant("targeted-wear", CONFIG, rate_tps=1.5e5)
        service, loud = _attributed(HONEST + [attacker])
        quarantined = EnvyService(
            dataclasses.replace(CONFIG, attribute_wear=True),
            HONEST + [attacker])
        quarantined.quarantine("attacker", rate_tps=2e4)
        quiet = quarantined.run(DURATION, jobs=1)
        assert quiet.tenants["attacker"].throttled > 0
        assert (quiet.tenants["attacker"].served
                < loud.tenants["attacker"].served)
        assert "attacker" in quarantined.health_report()["security"][
            "quarantined"]

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_quarantine_refuses_non_finite_rates(self, rate):
        """A NaN quarantine used to pass ``rate <= 0`` and build a bucket
        that admits everything: a 1e6 TPS tenant kept all its traffic."""
        spec = TenantSpec("loud", rate_tps=1e6)
        service = EnvyService(CONFIG, [spec])
        with pytest.raises(ValueError, match="positive and finite"):
            service.quarantine("loud", rate_tps=rate)
        assert service.quarantined == {}
        service.quarantine("loud", rate_tps=1e4)
        loud = service.run(0.001, jobs=1).tenants["loud"]
        assert loud.throttled > 0.9 * loud.offered

    def test_quarantine_never_relaxes_own_rate_limit(self):
        spec = TenantSpec("slowpoke", rate_tps=1e5, rate_limit_tps=1e4)
        service = EnvyService(CONFIG, [spec])
        service.quarantine("slowpoke", rate_tps=9e9)
        stats = service.run(0.005, jobs=1)
        limited = EnvyService(CONFIG, [spec]).run(0.005, jobs=1)
        assert stats.tenants["slowpoke"].served <= \
            limited.tenants["slowpoke"].served

    def test_wear_budget_caps_per_page_writes(self):
        attacker = attack_tenant("targeted-wear", CONFIG, rate_tps=1.5e5,
                                 wear_budget=4)
        service, stats = _attributed(HONEST + [attacker])
        wear = stats.tenants["attacker"].wear
        assert stats.tenants["attacker"].rejected_wear > 0
        assert max(wear["page_writes"].values()) <= 4
        assert stats.requests_rejected_wear > 0

    def test_scatter_remaps_on_the_default_router(self):
        attacker = attack_tenant("targeted-wear", CONFIG, rate_tps=1.5e5)
        service, _ = _attributed(HONEST + [attacker])
        result = service.scatter_hot_pages("attacker", max_pages=8)
        assert len(result["swaps"]) > 0
        assert result["remapped_pages"] == service.router.remapped_pages > 0
        assert not service.router.is_plain

    def test_scenario_restores_honest_tenants(self):
        attacker = attack_tenant("targeted-wear", CONFIG, rate_tps=1.5e5)
        scenario = run_attack_scenario(CONFIG, HONEST, attacker,
                                       DURATION, jobs=1)
        assert scenario["attack"]["flagged"] == ["attacker"]
        assert scenario["baseline"]["flagged"] == []
        # A throttled attacker may still look like an attacker; what
        # mitigation must guarantee is that no honest tenant is blamed.
        assert set(scenario["mitigated"]["flagged"]) <= {"attacker"}
        base = scenario["baseline"]
        mitigated = scenario["mitigated"]
        assert (mitigated["lifetime_days"]
                >= 0.5 * base["lifetime_days"])
        for name in ("zipfy", "uni"):
            for metric in ("read_p99_ns", "write_p99_ns"):
                assert mitigated["tenants"][name][metric] <= 2 * max(
                    base["tenants"][name][metric], 2000)

    def test_scenario_deterministic_across_jobs(self):
        attacker = attack_tenant("clean-amp", CONFIG, rate_tps=1.5e5)
        one = run_attack_scenario(CONFIG, HONEST, attacker, 0.005, jobs=1)
        two = run_attack_scenario(CONFIG, HONEST, attacker, 0.005, jobs=2)
        assert json.dumps(one, sort_keys=True) == \
            json.dumps(two, sort_keys=True)


class TestLifetimeUnderSkew:
    BASE = dict(array_pages=10_000, endurance_cycles=100_000,
                page_flush_rate=1000.0, cleaning_cost=0.3)

    def test_uniform_wear_matches_paper_model(self):
        assert LifetimeEstimate(**self.BASE).days == \
            LifetimeEstimate(**self.BASE, concentration=1.0).days

    def test_lifetime_monotone_in_concentration(self):
        days = [LifetimeEstimate(**self.BASE, concentration=c).days
                for c in (1.0, 1.5, 2.0, 4.0, 16.0)]
        assert days == sorted(days, reverse=True)
        assert days[-1] < days[0]

    def test_single_segment_hammer_closed_form(self):
        """All programs in one of S segments => 1/S of the uniform
        projection, exactly."""
        segments = 32
        counts = [0] * segments
        counts[5] = 12345
        factor = wear_concentration(counts)
        assert factor == pytest.approx(segments)
        uniform = LifetimeEstimate(**self.BASE)
        hammered = LifetimeEstimate(**self.BASE, concentration=factor)
        assert hammered.days == pytest.approx(uniform.days / segments)

    def test_concentration_below_one_rejected(self):
        with pytest.raises(ValueError):
            estimate_lifetime(EnvyConfig.paper(), 1000.0, 0.3,
                              concentration=0.5)

    def test_projection_uses_measured_wear(self):
        """The attack's damage shows up in the projection — a higher
        attributed program rate cuts the projected days.  (Segment-level
        concentration itself may even *drop* under attack: the cleaner's
        rotation spreads the hammered pages across segments, which is
        the array's own first line of defense.)"""
        attacker = attack_tenant("targeted-wear", CONFIG, rate_tps=1.5e5)
        honest_service, _ = _attributed(HONEST)
        loud_service, _ = _attributed(HONEST + [attacker])
        honest_life = project_lifetime(honest_service)
        loud_life = project_lifetime(loud_service)
        assert honest_life.concentration >= 1.0
        assert loud_life.concentration >= 1.0
        assert loud_life.page_flush_rate > honest_life.page_flush_rate
        assert loud_life.days < honest_life.days


class TestTenantSpecParse:
    def test_parse_round_trips_through_from_spec(self):
        spec = TenantSpec.parse(
            "name=a,workload=clean-amp,rate_tps=2e5,write_fraction=1.0,"
            "attack_pages=128,wear_budget=64,page_range=0:256")
        assert spec.workload == "clean_amp"
        assert spec.attack_pages == 128
        assert spec.wear_budget == 64
        assert spec.page_range == (0, 256)
        assert TenantSpec.from_spec(spec) is spec
        again = TenantSpec.from_spec(
            dict(name="a", workload="clean_amp", rate_tps=2e5,
                 write_fraction=1.0, attack_pages=128, wear_budget=64,
                 page_range=(0, 256)))
        assert again == spec

    #: A valid string per field type, and the fields that need another.
    TEXT = {int: "3", float: "2.5", bool: "false", tuple: "0:8", str: "x"}
    TEXT_OF = {"workload": "uniform", "mode": "closed",
               "write_fraction": "0.25", "slo_target": "0.5"}

    @pytest.mark.parametrize("field", list(field_types(TenantSpec)))
    def test_every_field_parses_to_its_annotated_type(self, field):
        """One spec string per field: the coercer comes from the field's
        resolved type, not from the annotation's text."""
        kind = field_types(TenantSpec)[field]
        text = self.TEXT_OF.get(field, self.TEXT[kind])
        spec = TenantSpec.parse(f"name=a,{field}={text}" if field != "name"
                                else f"name={text}")
        value = getattr(spec, field)
        assert type(value) is kind
        if kind is tuple:
            assert value == (0, 8)
            assert [type(end) for end in value] == [int, int]

    def test_parse_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ValueError):
            TenantSpec.parse("name=a,nope=1")
        with pytest.raises(ValueError):
            TenantSpec.parse("name=a,page_range=banana")
        with pytest.raises(ValueError):
            TenantSpec.parse("name=a,workload=rowhammer")


class TestHealthReportOrdering:
    KEYS = ("num_shards", "pages_per_shard", "service_pages", "tenants",
            "seed", "redundancy", "security")

    @staticmethod
    def _head(report):
        present = [key for key in report
                   if key in TestHealthReportOrdering.KEYS]
        return tuple(present)

    def test_fresh_service_report_is_canonically_ordered(self):
        report = EnvyService(CONFIG, HONEST).health_report()
        assert self._head(report) == tuple(
            k for k in self.KEYS if k in report)

    def test_ordering_stable_after_runs_and_detection(self):
        service, _ = _attributed(HONEST)
        service.detect_attacks()
        report = service.health_report()
        assert self._head(report) == tuple(
            k for k in self.KEYS if k in report)
        assert list(report) == list(_canonical_report(dict(report)))


_COUNTER_VALUES = st.integers(min_value=0, max_value=1 << 20)


_WEAR_TREES = st.fixed_dictionaries({
    "flushes": _COUNTER_VALUES,
    "induced_clean_copies": _COUNTER_VALUES,
    "residency_ns": _COUNTER_VALUES,
    "flush_segments": st.dictionaries(
        st.text("sp01234:", min_size=1, max_size=6),
        _COUNTER_VALUES, max_size=4),
    "page_writes": st.dictionaries(
        st.integers(min_value=0, max_value=64),
        _COUNTER_VALUES, max_size=4),
    "residency_windows": st.lists(_COUNTER_VALUES, max_size=4),
})


@st.composite
def _shard_results(draw):
    """Shards' counter columns over three tenants plus one pseudo-tenant
    (executor result form), and each shard's tenant-0 wear tree."""
    shards = draw(st.integers(min_value=1, max_value=5))
    column = st.lists(_COUNTER_VALUES, min_size=4, max_size=4)
    return [(draw(st.fixed_dictionaries(
                {key: column for key in TENANT_COUNTERS})),
             draw(_WEAR_TREES))
            for _ in range(shards)]


class TestMergeProperties:
    @given(_shard_results())
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_merge_is_field_complete_and_order_independent(self, shards):
        def merged(order):
            tenants = [TenantStats(name) for name in ("a", "b", "c")]
            merge_columns(tenants, [columns for columns, _ in order])
            for _, wear in order:
                tenants[0].merge_wear(wear)
            return tenants

        forward = merged(shards)
        backward = merged(shards[::-1])
        assert [t.as_dict() for t in forward] == \
            [t.as_dict() for t in backward]
        assert forward[0].wear == backward[0].wear
        # Field-complete: every counter column a shard reports is the
        # sum over shards — nothing silently dropped, the pseudo-tenant
        # (index 3) assigned to no tenant.
        for key in TENANT_COUNTERS:
            sums = [sum(columns[key][index] for columns, _ in shards)
                    for index in range(3)]
            assert [getattr(t, key) for t in forward] == sums
        assert forward[0].wear["flushes"] == \
            sum(wear["flushes"] for _, wear in shards)
        for _, wear in shards:
            for seg, count in wear["flush_segments"].items():
                assert forward[0].wear["flush_segments"][seg] >= count

    def test_a_column_without_an_attribute_is_refused(self):
        with pytest.raises(AttributeError):
            merge_columns([TenantStats("a")], [{"novel_counter": [1]}])
