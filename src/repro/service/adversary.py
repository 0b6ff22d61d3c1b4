"""Adversarial multi-tenancy: wear attacks, detection, mitigation.

The eNVy paper assumes cooperative traffic; a shared, sharded service
cannot.  Flash wear is a *consumable* shared resource, so a hostile
tenant can attack the medium itself rather than mere bandwidth:

* **targeted wear-out** (``hammer``) — cycle writes over a working set
  sized just past the SRAM buffer's coalescing reach, so every write
  misses SRAM and flushes back toward the same few segments, burning
  their endurance budget;
* **cleaning-pressure amplification** (``clean_amp``) — a coprime-
  stride sweep of the whole span: nothing coalesces, no segment ever
  looks cold, and every admitted byte drags near-worst-case cleaner
  copies behind it — cost paid by everyone sharing the bank;
* **buffer-occupancy squatting** (``squat``) — cycle over a working
  set sized to the aggregate SRAM, pinning every shard's FIFO near its
  watermarks so honest writes land in throttle/shed admission.

All three are ordinary :class:`~repro.service.tenant.TenantSpec`
shapes generated through the deterministic
:class:`~repro.service.loadgen.LoadGenerator` streams, so an attack
replays bit-identically across reruns and ``jobs`` settings — the
property every detection threshold and mitigation gate here relies on.

Detection principle — *the attacker lies*.  A tenant's declared
workload shape is a contract: the :class:`AttackDetector` compares the
wear each tenant *actually* caused (the per-tenant attribution the
shard executors collect when ``attribute_wear=True``) against a
reference stream regenerated from the tenant's **declared** shape with
a detector-owned seed.  Declared attack shapes are treated as declared
``uniform`` — a real attacker would not announce itself, and an honest
tenant never declares one.  Honest tenants match their own declaration
by construction (same generator family), which is what makes the
zero-false-positive gate achievable without per-workload tuning.

Mitigation composes three levers, all deterministic:

* **quarantine** (:meth:`~repro.service.frontend.EnvyService.
  quarantine`) — the flagged tenant's token bucket is degraded at
  schedule time;
* **wear budgets** — per-(tenant, page) admitted-write caps enforced
  by the shard executors at admission, sized here from the honest
  tenants' own observed per-page maxima;
* **hot-page scatter** (:meth:`~repro.service.frontend.EnvyService.
  scatter_hot_pages`) — the flagged tenant's hottest pages are
  remapped to seeded random peers through the redundancy layer's
  permutation, de-focusing the wear it already aimed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..core.lifetime import LifetimeEstimate
from ..core.metrics import wear_concentration
from ..obs.events import SECURITY_FLAG
from ..perf.sweep import derive_seed
from .frontend import EnvyService, ServiceConfig, ServiceStats
from .tenant import ATTACK_WORKLOADS, TenantSpec

__all__ = ["ATTACK_KINDS", "attack_tenant", "AttackDetector",
           "project_lifetime", "run_attack_scenario"]

#: CLI-facing attack preset names (see :func:`attack_tenant`).
ATTACK_KINDS = ("targeted-wear", "clean-amp", "squat")

#: Writes a reference stream draws at most (keeps detection cheap).
_REF_WRITE_CAP = 50_000

#: The detector's thresholds, echoed by every report under
#: ``thresholds``: the wear-concentration ratio over the declared
#: shape's; the clean signal's write fraction, flushes per write and
#: flush share; the squat signal's mean share of the aggregate buffer,
#: residency z-score and write fraction; and the writes a tenant needs
#: before the wear and clean signals judge it.
_THRESHOLDS = {
    "concentration_margin": 4.0,
    "clean_write_fraction": 0.95,
    "clean_flush_per_write": 0.85,
    "clean_min_flush_share": 0.25,
    "occupancy_threshold": 0.45,
    "occupancy_z": 1.0,
    "squat_write_fraction": 0.8,
    "min_writes": 200,
}


def attack_tenant(kind: str, config: Optional[ServiceConfig] = None,
                  name: str = "attacker", rate_tps: float = 200_000.0,
                  **overrides) -> TenantSpec:
    """A preset hostile tenant for one of :data:`ATTACK_KINDS`.

    ``config`` sizes the squat working set to the service's aggregate
    SRAM (every shard's segment-sized buffer); the other shapes use
    their documented defaults.  ``overrides`` are TenantSpec fields.
    """
    key = kind.replace("_", "-")
    if key == "targeted-wear":
        fields = {"workload": "hammer", "write_fraction": 1.0}
    elif key == "clean-amp":
        fields = {"workload": "clean_amp", "write_fraction": 1.0}
    elif key == "squat":
        pages = (config.num_shards * config.pages_per_segment
                 if config is not None else 256)
        fields = {"workload": "squat", "write_fraction": 1.0,
                  "attack_pages": pages}
    else:
        raise ValueError(
            f"unknown attack kind {kind!r}; choose from {ATTACK_KINDS}")
    fields.update(overrides)
    spec = TenantSpec(name=name, rate_tps=rate_tps, **fields)
    spec.validate()
    return spec


class AttackDetector:
    """Flags tenants whose attributed wear betrays their declaration.

    Three independent signals, each a ratio of *observed* behaviour to
    what the tenant's declared shape predicts (so an honest heavy-Zipf
    tenant is judged against heavy Zipf, not against uniform):

    * ``wear`` — page-level write concentration
      (:func:`~repro.core.metrics.wear_concentration` over the
      attributed per-page write counts, padded to the tenant's span)
      versus the same statistic over a declared-shape reference stream
      of equal length;
    * ``clean`` — uncoalesced flush pressure.  Induced cleaner copies
      smear across whoever's flush happens to trip the cleaner (the
      free pool is shared), so per-flush cost cannot localize blame;
      what does identify cleaning amplification is a tenant that is
      write-only (``own_write_fraction`` ≈ 1), coalesces essentially
      nothing in SRAM (``flush_per_write`` ≈ 1 — the stride's whole
      point) and dominates flush volume.  A tenant meeting all three
      is buying near-worst-case cleaning pressure per admitted token,
      whatever it declared;
    * ``squat`` — occupying a large fraction of the *aggregate* SRAM
      buffer, with a sustained per-window residency z-score against
      the other tenants (the windowed series the executors integrate)
      — dominance that persists across windows, not a burst — while
      being write-heavy (``own_write_fraction`` past
      ``squat_write_fraction``).  Buffer residency comes only from
      writes, so a squatter must write to squat; a read-mostly tenant
      whose writes happen to dwell is a big honest customer, and an
      attacker that pads with reads to duck this test surrenders the
      token-bucket budget those reads consume — halving its squat
      pressure at equal rate.

    The remaining quantities (induced cleaning cost vs peers, residency
    vs write share) are reported as evidence alongside the verdict.
    The thresholds are the constants :data:`_THRESHOLDS`.
    """

    def __init__(self, service: EnvyService) -> None:
        self.service = service

    # -- declared-shape reference ------------------------------------

    def _tenant_span(self, spec: TenantSpec) -> int:
        if spec.page_range is not None:
            start, end = spec.page_range
            return end - start
        return self.service.router.num_pages

    def _reference_concentration(self, spec: TenantSpec, index: int,
                                 writes: int) -> float:
        """Write concentration of ``writes`` draws from the tenant's
        *declared* shape (attack declarations read as uniform)."""
        span = self._tenant_span(spec)
        seed = derive_seed(self.service.config.seed, 9000 + index)
        declared = spec.workload
        if declared in ATTACK_WORKLOADS:
            declared = "uniform"
        counts: Dict[int, int] = {}
        if declared == "tpca":
            from ..db.layout import TpcaLayout
            from ..workloads.tpca import TpcaWorkload

            page_bytes = self.service.config.page_bytes
            layout = TpcaLayout.sized_for(
                self.service.router.num_pages * page_bytes)
            workload = TpcaWorkload(layout,
                                    rate_tps=max(spec.rate_tps, 1.0),
                                    seed=seed)
            last_page = self.service.router.num_pages - 1
            drawn = 0
            while drawn < writes:
                txn = workload.next_transaction()
                for is_write, address in workload.accesses(txn):
                    if not is_write:
                        continue
                    page = min(address // page_bytes, last_page)
                    counts[page] = counts.get(page, 0) + 1
                    drawn += 1
        else:
            if declared == "zipf":
                from ..workloads.zipf import ZipfWorkload

                pages = ZipfWorkload(span, skew=spec.skew, seed=seed,
                                     scatter=spec.scatter)
            else:
                from ..workloads.uniform import UniformWorkload

                pages = UniformWorkload(span, seed=seed)
            for _ in range(writes):
                page = pages.next_page()
                counts[page] = counts.get(page, 0) + 1
        values = list(counts.values())
        values += [0] * (span - len(values))
        return wear_concentration(values)

    # -- analysis -----------------------------------------------------

    def analyze(self, stats: Optional[ServiceStats] = None) -> dict:
        """The security report for one run's attributed stats."""
        service = self.service
        limits = _THRESHOLDS
        stats = stats if stats is not None else service.last_stats
        if stats is None:
            raise ValueError("no run to analyze")
        specs = {spec.name: spec for spec in service.tenants}
        indices = {spec.name: i for i, spec in
                   enumerate(service.tenants)}

        total_writes = sum(t.writes for t in stats.tenants.values())
        wears = {name: t.wear for name, t in stats.tenants.items()
                 if t.wear is not None}
        total_flushes = sum(w.get("flushes", 0) for w in wears.values())
        total_clean = sum(w.get("induced_clean_copies", 0)
                          for w in wears.values())
        total_residency = sum(w.get("residency_ns", 0)
                              for w in wears.values())
        # Aggregate buffer capacity: every shard owns one segment-sized
        # SRAM buffer (pages_per_segment pages).
        capacity_pages = (service.config.num_shards
                          * service.config.pages_per_segment)
        simulated_ns = max(1, stats.simulated_ns)
        window_series = {
            name: list(w.get("residency_windows") or [])
            for name, w in wears.items()}
        depth = max((len(series) for series in window_series.values()),
                    default=0)
        for series in window_series.values():
            series.extend([0] * (depth - len(series)))

        report_tenants: Dict[str, dict] = {}
        flagged: List[str] = []
        for name in sorted(stats.tenants):
            tstats = stats.tenants[name]
            wear = wears.get(name)
            spec = specs.get(name)
            if wear is None or spec is None:
                continue
            signals: Dict[str, float] = {}
            flags: List[str] = []

            # Signal 1: wear concentration vs declared shape.
            page_writes = [count for page, count
                           in wear.get("page_writes", {}).items()
                           if isinstance(page, int)]
            writes = sum(page_writes)
            if writes >= limits["min_writes"]:
                span = self._tenant_span(spec)
                values = page_writes + [0] * (span - len(page_writes))
                realized = wear_concentration(values)
                reference = self._reference_concentration(
                    spec, indices[name],
                    min(writes, _REF_WRITE_CAP))
                ratio = realized / max(reference, 1.0)
                signals["wear_concentration"] = round(realized, 3)
                signals["declared_concentration"] = round(reference, 3)
                signals["concentration_ratio"] = round(ratio, 3)
                if ratio > limits["concentration_margin"]:
                    flags.append("wear")

            # Signal 2: uncoalesced flush pressure.
            flushes = wear.get("flushes", 0)
            induced = wear.get("induced_clean_copies", 0)
            peer_flushes = total_flushes - flushes
            peer_clean = total_clean - induced
            accesses = tstats.reads + tstats.writes
            own_wf = tstats.writes / accesses if accesses else 0.0
            signals["own_write_fraction"] = round(own_wf, 3)
            if flushes and total_flushes and tstats.writes:
                cost = induced / flushes
                peer_cost = (peer_clean / peer_flushes
                             if peer_flushes else 0.0)
                flush_share = flushes / total_flushes
                per_write = flushes / tstats.writes
                signals["clean_cost"] = round(cost, 3)
                signals["peer_clean_cost"] = round(peer_cost, 3)
                signals["flush_per_write"] = round(per_write, 3)
                signals["flush_share"] = round(flush_share, 3)
                if (tstats.writes >= limits["min_writes"]
                        and own_wf > limits["clean_write_fraction"]
                        and per_write > limits["clean_flush_per_write"]
                        and flush_share > limits["clean_min_flush_share"]):
                    flags.append("clean")

            # Signal 3: buffer residency vs write share.
            residency = wear.get("residency_ns", 0)
            mean_pages = residency / simulated_ns
            occupancy = mean_pages / max(1, capacity_pages)
            write_share = (tstats.writes / total_writes
                           if total_writes else 0.0)
            residency_share = (residency / total_residency
                               if total_residency else 0.0)
            occupancy_ratio = (residency_share / write_share
                               if write_share else 0.0)
            signals["occupancy_fraction"] = round(occupancy, 3)
            signals["residency_share"] = round(residency_share, 3)
            signals["write_share"] = round(write_share, 3)
            signals["occupancy_ratio"] = round(occupancy_ratio, 3)
            zscore = self._window_z(name, window_series)
            if zscore is not None:
                signals["residency_z"] = round(zscore, 3)
            if (occupancy > limits["occupancy_threshold"]
                    and own_wf > limits["squat_write_fraction"]
                    and zscore is not None
                    and zscore > limits["occupancy_z"]):
                flags.append("squat")

            report_tenants[name] = {"flags": flags, "signals": signals}
            if flags:
                flagged.append(name)
                if service.events.active:
                    service.events.mark(
                        SECURITY_FLAG,
                        {"tenant": name, "signals": ",".join(flags)})

        return {
            "flagged": flagged,
            "tenants": report_tenants,
            "thresholds": dict(limits),
        }

    @staticmethod
    def _window_z(name: str,
                  window_series: Dict[str, List[int]]
                  ) -> Optional[float]:
        """Mean z-score of one tenant's residency windows against the
        cross-tenant population, window by window — evidence of
        *sustained* (not bursty) occupancy dominance."""
        series = window_series.get(name)
        if not series or len(window_series) < 2:
            return None
        zs = []
        for index, value in enumerate(series):
            population = [other[index]
                          for other in window_series.values()]
            mean = sum(population) / len(population)
            var = (sum((x - mean) ** 2 for x in population)
                   / len(population))
            if var > 0:
                zs.append((value - mean) / var ** 0.5)
        if not zs:
            return None
        return sum(zs) / len(zs)


def project_lifetime(service: EnvyService,
                     stats: Optional[ServiceStats] = None
                     ) -> LifetimeEstimate:
    """Section 5.5 lifetime projection for one service run, with the
    measured per-segment wear concentration folded in.

    Flush rate and cleaning cost come from the shard summaries;
    concentration from the attributed service-wide segment program
    counts (uniform when the run did not attribute wear).  The array
    is the union of every bank's flash.
    """
    stats = stats if stats is not None else service.last_stats
    if stats is None:
        raise ValueError("run the service before projecting lifetime")
    shard_config = service.config.shard_config()
    total_flushes = sum(s["flushes"] for s in stats.shards)
    total_clean = sum(s["clean_copies"] for s in stats.shards)
    seconds = max(stats.simulated_ns, 1) / 1e9
    concentration = 1.0
    if stats.segment_programs:
        total_segments = (service.config.num_shards
                          * service.config.num_segments)
        counts = list(stats.segment_programs.values())
        counts += [0] * (total_segments - len(counts))
        concentration = max(1.0, wear_concentration(counts))
    return LifetimeEstimate(
        array_pages=shard_config.total_pages * service.config.num_shards,
        endurance_cycles=shard_config.flash.endurance_cycles,
        page_flush_rate=total_flushes / seconds,
        cleaning_cost=(total_clean / total_flushes
                       if total_flushes else 0.0),
        concentration=concentration,
    )


def _honest_budget(stats: ServiceStats, honest: Sequence[str]) -> int:
    """A per-(tenant, page) write budget no honest tenant hits: twice
    the largest per-page write count any honest tenant produced."""
    peak = 0
    for name in honest:
        tstats = stats.tenants.get(name)
        if tstats is None or tstats.wear is None:
            continue
        for page, count in tstats.wear.get("page_writes", {}).items():
            if isinstance(page, int) and count > peak:
                peak = count
    return max(8, 2 * peak)


def _tenant_summary(stats: ServiceStats, names: Sequence[str]) -> dict:
    return {name: {
        "writes": stats.tenants[name].writes,
        "reads": stats.tenants[name].reads,
        "rejected": stats.tenants[name].rejected,
        "rejected_wear": stats.tenants[name].rejected_wear,
        "throttled": stats.tenants[name].throttled,
        "read_p99_ns": stats.tenants[name].read_latency.p99,
        "write_p99_ns": stats.tenants[name].write_latency.p99,
    } for name in names if name in stats.tenants}


def run_attack_scenario(config: ServiceConfig,
                        honest: Sequence[TenantSpec],
                        attack: TenantSpec,
                        duration_s: float,
                        jobs: Optional[int] = None) -> dict:
    """Baseline -> attack -> mitigated, deterministically.

    1. **baseline** — honest tenants only; the no-attack p99/lifetime
       reference.
    2. **attack** — honest tenants plus the attacker, detection run on
       the attributed wear.
    3. **mitigated** — same population on a fresh service: every
       flagged tenant is quarantined, given a wear budget sized from
       the honest tenants' own per-page maxima, and has its hot pages
       scattered (using the *attack* run's wear ranking).

    Returns one JSON-friendly dict with per-phase tenant summaries,
    lifetime projections and the security reports — the raw material
    for the detection and containment gates.
    """
    honest = list(honest)
    honest_names = [spec.name for spec in honest]
    base_config = replace(config, attribute_wear=True)

    baseline_service = EnvyService(base_config, honest)
    baseline_stats = baseline_service.run(duration_s, jobs=jobs)
    baseline_detect = AttackDetector(baseline_service).analyze(
        baseline_stats)
    baseline_life = project_lifetime(baseline_service, baseline_stats)

    attack_service = EnvyService(base_config, honest + [attack])
    attack_stats = attack_service.run(duration_s, jobs=jobs)
    attack_detect = AttackDetector(attack_service).analyze(attack_stats)
    attack_life = project_lifetime(attack_service, attack_stats)
    flagged = list(attack_detect["flagged"])

    budget = _honest_budget(attack_stats, honest_names)
    mitigated_tenants = [
        replace(spec, wear_budget=budget)
        if spec.name in flagged else spec
        for spec in honest + [attack]]
    mitigated_service = EnvyService(base_config, mitigated_tenants)
    scatters = {}
    for name in flagged:
        mitigated_service.quarantine(name)
        scattered = mitigated_service.scatter_hot_pages(
            name, stats=attack_stats)
        scatters[name] = len(scattered["swaps"])
    mitigated_stats = mitigated_service.run(duration_s, jobs=jobs)
    mitigated_detect = AttackDetector(mitigated_service).analyze(
        mitigated_stats)
    mitigated_life = project_lifetime(mitigated_service,
                                      mitigated_stats)

    def phase(stats: ServiceStats, life: LifetimeEstimate,
              detect: dict, names: Sequence[str]) -> dict:
        return {
            "tenants": _tenant_summary(stats, names),
            "lifetime_days": round(life.days, 4),
            "wear_concentration": round(life.concentration, 3),
            "cleaning_cost": round(life.cleaning_cost, 4),
            "flagged": detect["flagged"],
        }

    return {
        "attacker": attack.name,
        "attack_workload": attack.workload,
        "honest": honest_names,
        "wear_budget": budget,
        "hot_pages_scattered": scatters,
        "baseline": phase(baseline_stats, baseline_life,
                          baseline_detect, honest_names),
        "attack": phase(attack_stats, attack_life, attack_detect,
                        honest_names + [attack.name]),
        "mitigated": phase(mitigated_stats, mitigated_life,
                           mitigated_detect,
                           honest_names + [attack.name]),
        "reports": {
            "baseline": baseline_detect,
            "attack": attack_detect,
            "mitigated": mitigated_detect,
        },
    }
