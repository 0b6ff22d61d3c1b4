"""Service-level chaos: kill one shard mid-batch, recover all shards."""

from dataclasses import replace
from unittest import mock

import pytest

from repro.service import EnvyService, ServiceConfig, TenantSpec
from repro.service.chaos import run_service_chaos
from repro.service.executor import ShardExecutor

CONFIG = ServiceConfig(num_shards=2, num_segments=4, pages_per_segment=16,
                       seed=3)
DURATION = 0.002


@pytest.fixture(scope="module")
def dry():
    """Uninterrupted run sizing the victim shard's kill-point space."""
    return run_service_chaos(CONFIG, duration_s=DURATION, kill_at=None,
                             recover=False)


class TestServiceChaos:
    def test_kill_mid_batch_recovers_every_shard(self, dry):
        report = run_service_chaos(CONFIG, duration_s=DURATION,
                                   kill_shard=0,
                                   kill_at=max(1, dry.ops_seen // 2))
        assert report.interrupted and report.ok
        # Every shard was rebuilt independently against its own oracle.
        assert [entry["shard"] for entry in report.shards] == [0, 1]
        assert all(entry["committed_pages"] for entry in report.shards)

    def test_torn_program_on_victim_shard(self, dry):
        report = run_service_chaos(CONFIG, duration_s=DURATION,
                                   kill_shard=0,
                                   kill_at=max(1, dry.ops_seen // 3),
                                   tear=True)
        assert report.interrupted
        assert report.ok

    def test_killing_the_other_shard(self, dry):
        report = run_service_chaos(CONFIG, duration_s=DURATION,
                                   kill_shard=1, kill_at=5)
        assert report.ok
        assert report.victim == 1

    def test_ranged_placement_routes_through_the_router(self):
        # A tenant within shard 0's range commits nothing on shard 1.
        config = replace(CONFIG, placement="ranged", seed=0)
        tenant = TenantSpec("low", rate_tps=2e6, write_fraction=0.9,
                            skew=0.8, page_range=(0, config.pages_per_shard))
        report = run_service_chaos(config, [tenant])
        assert report.ok and [entry["committed_pages"]
                              for entry in report.shards] == [22, 0]


#: A one-request queue: the drill's writer overruns it.
CHOKED = ServiceConfig(num_shards=2, num_segments=4, pages_per_segment=16,
                       queue_capacity=1)


def shard_inputs(serve):
    """What ``serve()`` built each shard executor from, beside its
    controller and config, and the rows it fed each, in shard order."""
    built = []
    init, feed = ShardExecutor.__init__, ShardExecutor.feed

    def keep(executor, *args, **kwargs):
        init(executor, *args, **kwargs)
        built.append(executor)
        executor.fed = []

    def log(executor, rows, rids=None):
        executor.fed += rows
        feed(executor, rows, rids)

    with mock.patch.object(ShardExecutor, "__init__", autospec=True,
                           side_effect=keep), \
            mock.patch.object(ShardExecutor, "feed", autospec=True,
                              side_effect=log):
        serve()
    return [(executor.tenant_names, executor.wear_budgets,
             executor.cache_tenants,
             executor.cache and (executor.cache.capacity,
                                 executor.cache._caps),
             executor.fed) for executor in built], built


class TestDrillServesWhatRunServes:
    """The drill's shards are built and fed from the service config and
    per-run inputs ``EnvyService.run`` uses, not from a subset."""

    def test_retry_limit_reaches_the_drill(self):
        ops = {limit: run_service_chaos(replace(CHOKED, retry_limit=limit),
                                        recover=False).ops_seen
               for limit in (0, 3)}
        assert ops[0] != ops[3]

    def test_the_drill_replays_what_run_serves(self):
        """A tenant's cache opt-out, cache caps and wear budgets reach
        the drill's executors as they reach ``run``'s, with the same
        config and the same rows (the drill's cleaner differs: it keeps
        flushed copies for its commit oracle, so results may not)."""
        config = replace(CHOKED, retry_limit=2, cache_pages=8,
                         cache_tenant_cap=0.5, wear_budget=4,
                         store_data=True, prewarm_turnovers=0.0)
        tenants = [TenantSpec("writer", rate_tps=2e6, write_fraction=0.9,
                              skew=0.8, cache=False),
                   TenantSpec("reader", rate_tps=1e6, write_fraction=0.1,
                              wear_budget=2)]
        drilled, executors = shard_inputs(lambda: run_service_chaos(
            config, tenants, duration_s=0.0005, recover=False))
        served, _ = shard_inputs(
            lambda: EnvyService(config, tenants).run(0.0005, jobs=1))
        assert drilled == served
        assert drilled[0][1:3] == ([4, 2], [False, True])
        assert [executor.config for executor in executors] == [config] * 2
