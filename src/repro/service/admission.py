"""Closed-loop, SLO-driven admission control.

PR 6's admission layer was *static*: each tenant declared a
``rate_limit_tps`` and a token bucket enforced it forever, blind to
what the tenant actually experienced.  This module closes the loop
using the control signal PR 9 landed for exactly this purpose — the
:class:`~repro.obs.slo.SLOTracker`'s per-tenant error-budget burn
rates over the merged (deterministic) latency histograms.

After every :meth:`~repro.service.frontend.EnvyService.run`, the
controller walks each SLO-bearing tenant through a four-state ladder:

::

    normal ──burn>1──> promoted ──burn>1──> throttled ──burn>1──> shed
      ^                   │                    │                    │
      └──────burn<=1──────┘<───────burn<=1────┘<──────burn<=1──────┘

* **promote** — the cheapest remedy: a read-heavy tenant missing its
  latency SLO is moved into the DRAM cache tier, where its hot head is
  served at DRAM speed.  (Skipped when no cache is configured, when
  the tenant opted out with ``cache=False``, or when its traffic is
  write-dominated — the cache cannot help writes.)
* **throttle** — next run the tenant's token bucket is replaced with
  one at 0.5 × its *observed served rate*, trading its own throughput
  for its own tail (and everyone else's).
* **shed** — a severe cut to 0.05 × the served rate for tenants
  burning budget more than 4× faster than sustainable; the tenant
  keeps a trickle (100 tps) so recovery can be observed.
* **recover** — a healthy run (burn ≤ 1) relaxes one step per run;
  promoted tenants stay promoted, since the tier is usually *why* they
  are healthy.

Every decision is a pure function of the previous runs' merged stats
and SLO report — both already bit-identical across reruns and
``--jobs`` — so the closed loop inherits the service's determinism
contract.  Decisions act at *schedule time*, through the same
``rate_overrides`` mechanism the quarantine path uses (the override
never relaxes a tenant's own declared limit), plus the per-run cache
tier/occupancy inputs the front-end hands each shard.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

__all__ = ["AdmissionController", "ADMISSION_STATES"]

#: The ladder, mildest to harshest.
ADMISSION_STATES = ("normal", "promoted", "throttled", "shed")

#: SLO burn rate past which a tenant climbs one rung of the ladder.
_BURN_HOT = 1.0
#: Burn rate past which a tenant is shed outright.
_BURN_SHED = 4.0
#: Throttled and shed rates, as fractions of the observed served rate.
_THROTTLE_FACTOR = 0.5
_SHED_FACTOR = 0.05
#: The trickle no throttled or shed tenant falls below (tps).
_FLOOR_TPS = 100.0


class AdmissionController:
    """Per-tenant state machine over SLO burn rates."""

    def __init__(self, tenants: Sequence,
                 cache_available: bool = False) -> None:
        self.tenants = list(tenants)
        self.cache_available = cache_available
        self._specs = {spec.name: spec for spec in self.tenants}
        #: Tenants the loop manages: those with a declared SLO.
        self.managed = [spec.name for spec in self.tenants
                        if spec.slo_read_p99_ns is not None
                        or spec.slo_write_p99_ns is not None
                        or spec.slo_throughput_tps is not None]
        self._state: Dict[str, str] = {name: "normal"
                                       for name in self.managed}
        self._rates: Dict[str, float] = {}
        self._last_decisions: List[Dict] = []
        self.runs_observed = 0

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def observe(self, stats, slo_report: Mapping[str, Mapping],
                duration_s: float) -> List[Dict]:
        """Fold one run's outcome into the ladder.

        ``stats`` is the merged :class:`~repro.service.frontend.
        ServiceStats`; ``slo_report`` is ``SLOTracker.report()`` *after*
        the same run was observed.  Returns the run's decision records
        (state changes and standing non-normal states), in tenant
        declaration order.
        """
        decisions: List[Dict] = []
        for name in self.managed:
            entry = slo_report.get(name)
            if entry is None:
                continue
            spec = self._specs[name]
            tstats = stats.tenants.get(name)
            burn = entry["burn"]["last"]
            state = self._state[name]
            read_heavy = (tstats is not None
                          and tstats.reads >= tstats.writes)
            can_promote = (self.cache_available
                           and spec.cache is not False and read_heavy)
            if burn > _BURN_SHED:
                new_state = "shed"
            elif burn > _BURN_HOT:
                if state == "normal":
                    new_state = "promoted" if can_promote else "throttled"
                elif state == "promoted":
                    new_state = "throttled"
                else:
                    new_state = "shed"
            else:
                if state == "shed":
                    new_state = "throttled"
                elif state == "throttled":
                    new_state = "promoted" if can_promote else "normal"
                else:
                    # normal stays normal; promoted stays promoted (the
                    # tier is likely what keeps the burn down).
                    new_state = state
            if new_state in ("throttled", "shed"):
                served_tps = (tstats.served / duration_s
                              if tstats is not None and duration_s > 0
                              else 0.0)
                factor = (_THROTTLE_FACTOR if new_state == "throttled"
                          else _SHED_FACTOR)
                base = served_tps if served_tps > 0 else \
                    self._rates.get(name, _FLOOR_TPS)
                rate = max(_FLOOR_TPS, base * factor)
                if spec.rate_limit_tps is not None:
                    rate = min(rate, spec.rate_limit_tps)
                self._rates[name] = rate
            else:
                self._rates.pop(name, None)
            self._state[name] = new_state
            if new_state != state or new_state != "normal":
                decisions.append({
                    "tenant": name,
                    "state": new_state,
                    "previous": state,
                    "burn": burn,
                    "rate_tps": round(self._rates.get(name, 0.0), 3),
                })
        self.runs_observed += 1
        self._last_decisions = decisions
        return decisions

    # ------------------------------------------------------------------
    # Outputs the front-end consumes
    # ------------------------------------------------------------------

    def state(self, name: str) -> str:
        return self._state.get(name, "normal")

    def rate_overrides(self) -> Dict[str, float]:
        """Schedule-time bucket replacements for the next run (same
        mechanism as quarantine; merged with ``min()`` against it)."""
        return dict(self._rates)

    def cache_tier(self) -> List[str]:
        """Tenants in the DRAM tier next run: pinned (``cache=True``)
        plus currently promoted, minus opted-out (``cache=False``)."""
        tier = []
        for spec in self.tenants:
            if spec.cache is False:
                continue
            if spec.cache is True or \
                    self._state.get(spec.name) == "promoted":
                tier.append(spec.name)
        return tier

    def report(self) -> Dict[str, object]:
        """``health_report()["admission"]`` payload."""
        return {
            "enabled": True,
            "runs_observed": self.runs_observed,
            "managed": list(self.managed),
            "states": {name: self._state[name]
                       for name in sorted(self._state)},
            "rate_overrides": {name: round(rate, 3)
                               for name, rate in sorted(
                                   self._rates.items())},
            "cache_tier": self.cache_tier(),
            "last_decisions": list(self._last_decisions),
        }
