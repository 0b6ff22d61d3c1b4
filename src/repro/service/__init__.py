"""``repro.service``: one-or-many eNVy banks as a storage service.

The library below this package simulates a *single* eNVy controller;
this package presents N of them as a concurrent, multi-tenant storage
service:

* :class:`ShardRouter` — stripes one logical page space across shards
  (:mod:`repro.service.shard`);
* :class:`TenantSpec` / :class:`TokenBucket` / :class:`TenantStats` —
  per-tenant workload shapes, rate limits and accounting
  (:mod:`repro.service.tenant`);
* :class:`LoadGenerator` — deterministic open/closed-loop multi-tenant
  schedules on the discrete-event clock
  (:mod:`repro.service.loadgen`);
* :class:`ShardExecutor` — bounded queue, admission control, bounded
  deterministic retry and write batching per shard
  (:mod:`repro.service.executor`);
* :class:`PageCache` — the DRAM read-cache tier (CLOCK / LRU,
  per-tenant occupancy caps) serving hot reads at DRAM speed
  (:mod:`repro.service.cache`);
* :class:`AdmissionController` — closed-loop admission: promote /
  throttle / shed tenants from their observed SLO burn between runs
  (:mod:`repro.service.admission`);
* :class:`EnvyService` — the front door: schedule, fan out over
  ``run_sweep``, merge (:mod:`repro.service.frontend`);
* :class:`RedundancyPolicy` and friends — cross-bank mirroring and
  rotated single parity so the service survives whole-bank loss,
  plus :class:`RebuildScheduler` (online rebuild) and
  :func:`plan_rebalance` (hot-page remapping)
  (:mod:`repro.service.redundancy`);
* :func:`run_service_chaos` — kill a shard mid-batch and recover
  every shard independently; :func:`run_redundancy_chaos` — kill a
  whole *bank* mid-write and prove degraded serving, online rebuild
  and post-mortem recovery (:mod:`repro.service.chaos`).  Both return
  a :class:`~repro.core.chaos.ChaosReport`; sweep either with
  :func:`~repro.core.chaos.sweep_kill_points`;
* :class:`AttackDetector` / :func:`attack_tenant` /
  :func:`run_attack_scenario` — hostile-tenant wear attacks, per-tenant
  wear attribution, detection and quarantine-and-throttle mitigation
  (:mod:`repro.service.adversary`).

Drive it from the CLI with ``python -m repro serve`` (see
``--redundancy`` / ``--kill-bank``); docs/SERVICE.md is the guide.
"""

from .admission import ADMISSION_STATES, AdmissionController
from .adversary import (ATTACK_KINDS, AttackDetector, attack_tenant,
                        project_lifetime, run_attack_scenario)
from .cache import CACHE_POLICIES, PageCache
from .chaos import run_redundancy_chaos, run_service_chaos
from .executor import ShardExecutor, service_shard_point
from .frontend import EnvyService, ServiceConfig, ServiceStats
from .loadgen import LoadGenerator, Request
from .redundancy import (BANK_DEAD, BANK_HEALTHY, BANK_REBUILDING,
                         DegradedModeError, MirrorPolicy, NoRedundancy,
                         ParityPolicy, RebuildScheduler, RedundancyPolicy,
                         RedundantRouter, make_policy, plan_rebalance)
from .shard import ShardRouter
from .tenant import TenantSpec, TenantStats, TokenBucket

__all__ = [
    "ShardRouter",
    "TenantSpec",
    "TenantStats",
    "TokenBucket",
    "LoadGenerator",
    "Request",
    "ShardExecutor",
    "service_shard_point",
    "PageCache",
    "CACHE_POLICIES",
    "AdmissionController",
    "ADMISSION_STATES",
    "EnvyService",
    "ServiceConfig",
    "ServiceStats",
    "DegradedModeError",
    "RedundancyPolicy",
    "NoRedundancy",
    "MirrorPolicy",
    "ParityPolicy",
    "make_policy",
    "RedundantRouter",
    "RebuildScheduler",
    "plan_rebalance",
    "BANK_HEALTHY",
    "BANK_DEAD",
    "BANK_REBUILDING",
    "run_service_chaos",
    "run_redundancy_chaos",
    "ATTACK_KINDS",
    "AttackDetector",
    "attack_tenant",
    "project_lifetime",
    "run_attack_scenario",
]
