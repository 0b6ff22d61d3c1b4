"""Tenants: who is asking, how fast they may ask, what they observed.

The service multiplexes many client populations ("tenants") over the
shared shard pool.  A tenant bundles three things:

* a **workload shape** (:class:`TenantSpec`) — Zipf / uniform page
  streams or full TPC-A transactions, open-loop (Poisson arrivals at a
  requested rate) or closed-loop (a fixed client population with think
  time);
* a **rate limit** (:class:`TokenBucket`) — the admission layer's
  per-tenant throttle, driven purely by simulated arrival time so the
  decision sequence is a deterministic function of the schedule;
* **accounting** (:class:`TenantStats`) — per-tenant
  :class:`~repro.obs.hist.LatencyHistogram`\\ s, which every shard
  records into, and counters, merged exactly across shards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Optional, Tuple, Union

from ..obs.hist import LatencyHistogram

__all__ = ["TokenBucket", "TenantSpec", "TenantStats",
           "ATTACK_WORKLOADS"]

#: Workload shapes that model a hostile tenant (repro.service.adversary).
#: They generate through the same seeded LoadGenerator streams as honest
#: shapes, so an attack replays bit-identically across reruns and jobs.
ATTACK_WORKLOADS = ("hammer", "clean_amp", "squat")

_HONEST_WORKLOADS = ("zipf", "uniform", "tpca")


class TokenBucket:
    """Deterministic token-bucket rate limiter on the simulated clock.

    ``allow(t_ns)`` must be called with non-decreasing timestamps; the
    bucket refills continuously at ``rate_per_s`` tokens per simulated
    second up to ``burst`` and each allowed request consumes one token.
    Pure float arithmetic over the arrival sequence — two runs over the
    same schedule make identical decisions.
    """

    __slots__ = ("rate_per_s", "burst", "_tokens", "_last_ns",
                 "allowed", "throttled")

    def __init__(self, rate_per_s: float, burst: float = 10.0) -> None:
        if rate_per_s <= 0:
            raise ValueError("token rate must be positive")
        if burst < 1:
            raise ValueError("burst must allow at least one token")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_ns = 0
        self.allowed = 0
        self.throttled = 0

    def allow(self, t_ns: int) -> bool:
        if t_ns > self._last_ns:
            self._tokens = min(
                self.burst,
                self._tokens + (t_ns - self._last_ns) * self.rate_per_s
                / 1e9)
            self._last_ns = t_ns
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.allowed += 1
            return True
        self.throttled += 1
        return False


@dataclass(frozen=True)
class TenantSpec:
    """Static description of one tenant's offered load.

    ``workload`` selects the page-reference shape:

    * ``"zipf"`` — single-page accesses, popularity skew ``skew``,
      write probability ``write_fraction``;
    * ``"uniform"`` — as above with uniform popularity;
    * ``"tpca"`` — each arrival is one full TPC-A transaction (B-tree
      probes, record reads, three balance writes) mapped onto the
      service page space, so the read/write mix comes from the
      transaction structure and ``write_fraction`` is ignored.

    ``mode`` picks the arrival process: ``"open"`` is Poisson at
    ``rate_tps`` arrivals per simulated second; ``"closed"`` models
    ``clients`` independent sessions that each wait an exponential
    think time (mean ``think_ns``) plus a fixed service-time estimate
    between requests.  The closed-loop schedule uses the estimate
    instead of execution feedback so the schedule — and therefore every
    shard's input — stays independent of execution order and can be
    fanned out across worker processes without changing results.

    ``rate_limit_tps`` arms the per-tenant token bucket (``None`` =
    unlimited); throttled arrivals are counted and never reach a shard.

    ``page_range`` confines the tenant to a half-open ``[start, end)``
    slice of the service page space (``None`` = the whole space) —
    under ranged placement this is how a tenant ends up owning (and
    hammering) a single bank.  ``scatter`` keeps the Zipf scatter
    permutation (default); turning it off makes popularity rank equal
    page number, so the hot head is a *contiguous* prefix — the
    pathological layout the rebalancer exists to repair.

    Three additional shapes model a *hostile* tenant (see
    :mod:`repro.service.adversary`):

    * ``"hammer"`` — targeted wear-out: cycle writes over a contiguous
      run of ``attack_pages`` pages.  Sized just past the SRAM buffer's
      coalescing reach, every write misses and flushes back toward the
      same few segments, burning their endurance.
    * ``"clean_amp"`` — cleaning-pressure amplification: a coprime
      stride sweep of the whole span, the pattern that defeats both
      SRAM coalescing and locality-aware cleaning, maximizing cleaner
      copies per admitted byte.
    * ``"squat"`` — buffer-occupancy squatting: cycle over
      ``attack_pages`` pages sized to the aggregate SRAM buffer, so
      the attacker's pages pin every shard's FIFO near its watermarks
      and neighbors fall into throttle/shed admission.

    ``wear_budget`` caps how many admitted writes this tenant may land
    on any single logical page (``None`` = the service-wide default
    from :class:`~repro.service.frontend.ServiceConfig`); the shard
    executors enforce it at admission.

    ``slo_read_p99_ns`` / ``slo_write_p99_ns`` declare latency
    objectives: a ``slo_target`` fraction of the tenant's requests must
    finish within the bound.  ``slo_throughput_tps`` declares a floor on
    served accesses per simulated second.  Declared objectives feed the
    :class:`~repro.obs.slo.SLOTracker` — violation counts and
    multi-window burn rates in ``health_report()["slo"]``.

    ``cache`` overrides membership in the DRAM read-cache tier: True
    pins the tenant in, False keeps it out, None (default) leaves the
    decision to the service (everyone when admission control is static;
    the closed-loop controller's choice otherwise).

    ``arrive_s`` / ``depart_s`` give the tenant a lifetime within the
    run — it offers no load before arrival or after departure — and
    ``burst_every_s``/``burst_s``/``burst_x`` overlay periodic bursts
    (every ``burst_every_s`` seconds after arrival the offered rate is
    multiplied by ``burst_x`` for ``burst_s`` seconds; open-loop only).
    Together these model churn at O(10³)-tenant scale.
    """

    name: str
    rate_tps: float = 1000.0
    workload: str = "zipf"
    skew: float = 1.0
    write_fraction: float = 0.5
    rate_limit_tps: Optional[float] = None
    burst: float = 64.0
    mode: str = "open"
    clients: int = 16
    think_ns: int = 1_000_000
    service_estimate_ns: int = 200
    page_range: Optional[Tuple[int, int]] = None
    scatter: bool = True
    #: Working-set size of the hammer/squat attack shapes, in pages.
    attack_pages: int = 64
    #: Per-page admitted-write cap enforced at shard admission
    #: (``None`` = the ServiceConfig default, which itself defaults off).
    wear_budget: Optional[int] = None
    #: Declared p99 latency objectives in simulated nanoseconds
    #: (``None`` = no objective for that operation).
    slo_read_p99_ns: Optional[int] = None
    slo_write_p99_ns: Optional[int] = None
    #: Declared floor on served accesses per simulated second.
    slo_throughput_tps: Optional[float] = None
    #: Fraction of requests that must meet the latency bound.
    slo_target: float = 0.99
    #: Cache-tier membership override (None = let the service decide).
    cache: Optional[bool] = None
    #: Churn schedule: simulated arrival / departure times in seconds.
    arrive_s: float = 0.0
    depart_s: Optional[float] = None
    #: Periodic burst overlay (open-loop): every ``burst_every_s``
    #: seconds the offered rate is ``burst_x``× for ``burst_s`` seconds.
    burst_every_s: Optional[float] = None
    burst_s: float = 0.0
    burst_x: float = 4.0

    def validate(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.workload not in _HONEST_WORKLOADS + ATTACK_WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.attack_pages < 1:
            raise ValueError("attack_pages must be positive")
        if self.wear_budget is not None and self.wear_budget < 1:
            raise ValueError("wear_budget must be positive when set")
        if self.mode not in ("open", "closed"):
            raise ValueError(f"unknown arrival mode {self.mode!r}")
        if self.mode == "open" and self.rate_tps <= 0:
            raise ValueError("open-loop tenants need a positive rate")
        if self.mode == "closed" and self.clients < 1:
            raise ValueError("closed-loop tenants need at least one client")
        if min(self.think_ns, self.service_estimate_ns) < 0 or (
                self.mode == "closed"
                and self.think_ns + self.service_estimate_ns == 0):
            raise ValueError("a client's clock must advance: think_ns and "
                             "service_estimate_ns >= 0, not both 0")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.rate_limit_tps is not None and self.rate_limit_tps <= 0:
            raise ValueError("rate_limit_tps must be positive when set")
        for bound in (self.slo_read_p99_ns, self.slo_write_p99_ns):
            if bound is not None and bound < 1:
                raise ValueError("SLO latency bounds must be positive")
        if (self.slo_throughput_tps is not None
                and self.slo_throughput_tps <= 0):
            raise ValueError("slo_throughput_tps must be positive when set")
        if not 0.0 < self.slo_target < 1.0:
            raise ValueError("slo_target must be in (0, 1)")
        if self.arrive_s < 0:
            raise ValueError("arrive_s cannot be negative")
        if self.depart_s is not None and self.depart_s <= self.arrive_s:
            raise ValueError("depart_s must be after arrive_s")
        if self.burst_every_s is not None:
            if self.burst_every_s <= 0:
                raise ValueError("burst_every_s must be positive when set")
            if not 0.0 <= self.burst_s <= self.burst_every_s:
                raise ValueError(
                    "burst_s must be in [0, burst_every_s]")
            if self.burst_x <= 0:
                raise ValueError("burst_x must be positive")
        if self.page_range is not None:
            start, end = self.page_range
            if start < 0 or end <= start:
                raise ValueError(
                    "page_range must be a non-empty [start, end) span")
            if self.workload == "tpca":
                raise ValueError(
                    "page_range applies to zipf/uniform tenants only "
                    "(tpca lays out its own tables)")

    def make_bucket(self, override: Optional[float] = None
                    ) -> Optional[TokenBucket]:
        """The token bucket, at a quarantine ``override`` rate if lower."""
        rates = [rate for rate in (self.rate_limit_tps, override)
                 if rate is not None]
        return TokenBucket(min(rates), self.burst) if rates else None

    # ------------------------------------------------------------------
    # Parsing (the one tenant-spec parser; CLI and benches delegate here)
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_bool(value: str) -> bool:
        lowered = value.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"bad boolean {value!r} (use true/false)")

    @staticmethod
    def _int(value: str) -> int:
        """``int(float(value))``, so ``clients=1e2`` works; ``inf`` and
        ``1e400`` are a ValueError, not an OverflowError."""
        try:
            return int(float(value))
        except OverflowError:
            raise ValueError(f"{value.strip()!r} is not finite") from None

    @staticmethod
    def _parse_range(value: str) -> Tuple[int, int]:
        start, sep, end = value.strip().partition(":")
        if not sep:
            raise ValueError(
                f"bad page_range {value!r} (use 'start:end', e.g. 0:256)")
        return TenantSpec._int(start), TenantSpec._int(end)

    @classmethod
    def _coercers(cls) -> Dict[str, object]:
        coercers: Dict[str, object] = {}
        for spec_field in fields(cls):
            if spec_field.type in ("int", "Optional[int]"):
                coercers[spec_field.name] = cls._int
            elif spec_field.type in ("float", "Optional[float]"):
                coercers[spec_field.name] = float
            elif spec_field.type in ("bool", "Optional[bool]"):
                coercers[spec_field.name] = cls._parse_bool
            elif "Tuple" in spec_field.type:
                coercers[spec_field.name] = cls._parse_range
            else:
                coercers[spec_field.name] = str
        return coercers

    @classmethod
    def parse(cls, spec: str) -> "TenantSpec":
        """``"name=a,workload=zipf,rate_tps=1e6,..."`` -> validated spec.

        The single source of truth for tenant-spec strings: the serve
        CLI and every benchmark parse through here.  Keys are the
        dataclass fields; numbers accept scientific notation (ints go
        through float, so ``clients=1e2`` works), booleans accept
        true/false/yes/no/on/off/1/0, ``page_range`` is ``start:end``,
        and workload names may use ``-`` for ``_`` (``clean-amp``).
        ``slo=READ[:WRITE[:TARGET]]`` expands to the three SLO fields
        (``-`` or empty skips a bound): ``slo=150e3:300e3:0.995``
        declares read p99 ≤ 150 µs and write p99 ≤ 300 µs at the
        99.5th percentile.  Raises :class:`ValueError` on unknown keys
        or bad values.
        """
        coercers = cls._coercers()
        kwargs: Dict[str, object] = {}
        for part in spec.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if key == "slo" and sep:
                bounds = value.strip().split(":")
                if not 1 <= len(bounds) <= 3 or not any(bounds):
                    raise ValueError(
                        f"bad slo spec {value!r} "
                        f"(use READ[:WRITE[:TARGET]])")
                if bounds[0] not in ("", "-"):
                    kwargs["slo_read_p99_ns"] = cls._int(bounds[0])
                if len(bounds) > 1 and bounds[1] not in ("", "-"):
                    kwargs["slo_write_p99_ns"] = cls._int(bounds[1])
                if len(bounds) > 2 and bounds[2] not in ("", "-"):
                    kwargs["slo_target"] = float(bounds[2])
                continue
            if not sep or key not in coercers:
                raise ValueError(
                    f"bad tenant spec item {part!r}; keys: "
                    f"{', '.join(sorted(coercers))}, slo")
            kwargs[key] = coercers[key](value.strip())
        if isinstance(kwargs.get("workload"), str):
            kwargs["workload"] = kwargs["workload"].replace("-", "_")
        tenant = cls(**kwargs)
        tenant.validate()
        return tenant

    @classmethod
    def from_spec(cls, spec: Union["TenantSpec", Mapping, str]
                  ) -> "TenantSpec":
        """Coerce any of the accepted tenant descriptions to a spec:
        an existing :class:`TenantSpec`, a kwargs mapping (the benchmark
        scenario form), or a ``key=value,...`` string (the CLI form)."""
        if isinstance(spec, cls):
            spec.validate()
            return spec
        if isinstance(spec, str):
            return cls.parse(spec)
        tenant = cls(**dict(spec))
        tenant.validate()
        return tenant


def _merge_tree(dst: Dict, src: Mapping) -> Dict:
    """Add ``src`` into ``dst`` recursively: numbers add, dicts merge
    key-wise, lists add element-wise (shorter side zero-padded).  Both
    operations commute and associate, so merging shard slices in any
    order produces the same aggregate."""
    for key, value in src.items():
        if isinstance(value, Mapping):
            dst[key] = _merge_tree(dst.get(key) or {}, value)
        elif isinstance(value, list):
            have = list(dst.get(key) or [])
            if len(have) < len(value):
                have.extend([0] * (len(value) - len(have)))
            for index, item in enumerate(value):
                have[index] += item
            dst[key] = have
        else:
            dst[key] = dst.get(key, 0) + value
    return dst


class TenantStats:
    """One tenant's service-level view of a run (mergeable).

    Every shard records into the one pair of latency histograms (a
    parallel run merges its workers' pairs in).

    :meth:`merge_shard` is **field-complete and order-independent**: it
    folds in *every* key of a shard's per-tenant counter slice — named
    counters onto their attributes, the ``wear`` attribution tree
    recursively, and any key this class has never heard of into
    :attr:`extra` — rather than reading a fixed key list.  A counter
    that exists on only one side
    (a tenant confined to one bank via ``page_range``, a shard that
    never retried) merges as if the other side reported zero, and any
    permutation of the shard results yields the same aggregate.
    """

    __slots__ = ("name", "offered", "throttled", "rejected", "delayed",
                 "reads", "writes", "retried", "rejected_wear",
                 "cache_hits", "cache_misses",
                 "read_latency", "write_latency", "wear", "extra")

    _COUNTERS = ("rejected", "delayed", "reads", "writes", "retried",
                 "rejected_wear", "cache_hits", "cache_misses")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Accesses the load generator produced for this tenant.
        self.offered = 0
        #: Accesses the token bucket refused before sharding.
        self.throttled = 0
        #: Accesses a shard's admission control rejected.
        self.rejected = 0
        #: Writes delayed by cleaner-debt backpressure.
        self.delayed = 0
        self.reads = 0
        self.writes = 0
        #: Queue-full rejections absorbed as deferred retries.
        self.retried = 0
        #: Writes refused because the tenant exhausted a per-page wear
        #: budget (repro.service.adversary mitigation).
        self.rejected_wear = 0
        #: Reads served from / fallen through the DRAM cache tier.
        self.cache_hits = 0
        self.cache_misses = 0
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        #: Wear-attribution tree (writes per segment, induced cleaning,
        #: buffer residency) when the run attributed wear, else None.
        self.wear: Optional[Dict] = None
        #: Counters no named attribute claims — nothing a shard reports
        #: is ever dropped on merge.
        self.extra: Dict[str, object] = {}

    @property
    def served(self) -> int:
        return self.reads + self.writes

    def merge_shard(self, shard_stats: Mapping) -> None:
        """Fold one shard's per-tenant slice into the aggregate."""
        counters = self._COUNTERS
        for key, value in shard_stats.items():
            if key in counters:
                if value:
                    setattr(self, key, getattr(self, key) + value)
            elif key == "wear":
                self.wear = _merge_tree(self.wear or {}, value)
            elif isinstance(value, (Mapping, list)):
                merged = _merge_tree({key: self.extra.get(key)}
                                     if self.extra.get(key) is not None
                                     else {}, {key: value})
                self.extra[key] = merged[key]
            else:
                self.extra[key] = self.extra.get(key, 0) + value

    def as_dict(self) -> dict:
        """Flat JSON-friendly summary (histograms reduced to tails)."""
        summary = {
            "offered": self.offered,
            "throttled": self.throttled,
            "rejected": self.rejected,
            "delayed": self.delayed,
            "reads": self.reads,
            "writes": self.writes,
            "retried": self.retried,
            "rejected_wear": self.rejected_wear,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "read_p50_ns": self.read_latency.p50,
            "read_p99_ns": self.read_latency.p99,
            "write_p50_ns": self.write_latency.p50,
            "write_p99_ns": self.write_latency.p99,
        }
        if self.wear is not None:
            summary["wear"] = {
                "flushes": self.wear.get("flushes", 0),
                "induced_clean_copies": self.wear.get(
                    "induced_clean_copies", 0),
                "segments_written": len(
                    self.wear.get("flush_segments") or {}),
                "residency_ns": self.wear.get("residency_ns", 0),
            }
        for key in sorted(self.extra):
            value = self.extra[key]
            if isinstance(value, dict):
                summary[key] = {str(k): value[k] for k in sorted(value)}
            else:
                summary[key] = value
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TenantStats({self.name}: {self.served} served, "
                f"{self.throttled} throttled, {self.rejected} rejected)")
