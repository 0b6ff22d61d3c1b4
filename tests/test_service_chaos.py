"""Service-level chaos: kill one shard mid-batch, recover all shards."""

from dataclasses import replace

import pytest

from repro.service import ServiceConfig, TenantSpec
from repro.service.chaos import run_service_chaos

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
