"""Whole-bank-loss drills: degraded serving, recovery, online rebuild."""

from unittest import mock

import pytest

from repro.core.chaos import ChaosReport, attach_commit_oracle
from repro.core.config import EnvyConfig
from repro.core.controller import EnvyController
from repro.service import ServiceConfig, TenantSpec
from repro.service.chaos import run_redundancy_chaos
from repro.service.frontend import EnvyService
from repro.service.redundancy import DegradedModeError

MIRROR = ServiceConfig(num_shards=3, num_segments=4, pages_per_segment=16,
                       redundancy="mirror", seed=5)
PARITY = ServiceConfig(num_shards=3, num_segments=4, pages_per_segment=16,
                       redundancy="parity", seed=5)
DURATION = 0.0004


@pytest.fixture(scope="module")
def dry():
    """Uninterrupted drill sizing the victim bank's kill-point space."""
    return run_redundancy_chaos(MIRROR, duration_s=DURATION,
                                kill_at=None)


class TestRedundancyChaos:
    @pytest.mark.parametrize("config", [MIRROR, PARITY],
                             ids=["mirror", "parity"])
    def test_mid_write_bank_loss_survives_end_to_end(self, config, dry):
        report = run_redundancy_chaos(config, duration_s=DURATION,
                                      victim=1,
                                      kill_at=max(1, dry.ops_seen // 2))
        assert report.interrupted
        assert report.ok, report.checks
        # Degraded serving covered the whole logical space.
        assert report.counts["degraded_pages_checked"] > 0
        # The dead bank's own array recovered its committed prefix.
        assert [(entry["shard"], entry["mismatches"])
                for entry in report.shards] == [(1, 0)]
        # Online rebuild repopulated and verified the replacement.
        assert report.counts["rebuilt_pages"] > 0
        assert report.counts["rebuild_verified"] is True

    def test_clean_loss_after_the_batch(self, dry):
        report = run_redundancy_chaos(MIRROR, duration_s=DURATION,
                                      kill_at=dry.ops_seen + 1)
        assert not report.interrupted
        assert report.ok

    def test_torn_program_on_the_victim(self, dry):
        report = run_redundancy_chaos(MIRROR, duration_s=DURATION,
                                      kill_at=max(1, dry.ops_seen // 3),
                                      tear=True)
        assert report.interrupted
        assert report.ok

    def test_unservable_read_is_a_serving_mismatch(self):
        with mock.patch.object(EnvyService, "read_page",
                               side_effect=DegradedModeError("dead")):
            report = run_redundancy_chaos(MIRROR, duration_s=DURATION)
        assert report.checks["serving"] and not report.ok

    def test_plain_config_rejected(self):
        plain = ServiceConfig(num_shards=2, num_segments=4,
                              pages_per_segment=16)
        with pytest.raises(ValueError):
            run_redundancy_chaos(plain, duration_s=DURATION)


class TestRecoverBanks:
    def test_recovers_each_bank_against_its_oracle(self):
        config = EnvyConfig.scaled(num_segments=4, pages_per_segment=16)
        controllers, oracles = [], []
        for bank in range(2):
            ctrl = EnvyController(config, store_data=True)
            ctrl.store.preserve_flushed_copies = True
            oracles.append(attach_commit_oracle(ctrl))
            for page in range(6):
                ctrl.write(page * config.page_bytes,
                           bytes([bank * 16 + page + 1] * 8))
            for _ in range(6):
                ctrl.flush_one()
            controllers.append(ctrl)
        arrays = [ctrl.array for ctrl in controllers]
        report = ChaosReport(victim=0, kill_at=None, tear=False)
        report.recover(arrays, config, oracles)
        assert report.ok and len(report.reports) == 2
        assert [(entry["shard"], entry["committed_pages"])
                for entry in report.shards] == [(0, 6), (1, 6)]
        oracles[1][0] = b"a committed page recovery lost"
        lost = ChaosReport(victim=0, kill_at=None, tear=False)
        lost.recover(arrays, config, oracles)
        assert lost.mismatches == [(1, 0)] and not lost.ok

    def test_oracle_count_must_match(self):
        config = EnvyConfig.scaled(num_segments=4, pages_per_segment=16)
        ctrl = EnvyController(config, store_data=True)
        with pytest.raises(ValueError):
            ChaosReport(victim=0, kill_at=None, tear=False).recover(
                [ctrl.array], config, [{}, {}])


class TestHealthReportRecoverySection:
    def test_drill_report_lands_in_health_report(self, dry):
        report = run_redundancy_chaos(MIRROR, duration_s=DURATION,
                                      kill_at=max(1, dry.ops_seen // 2))
        service = EnvyService(MIRROR, [TenantSpec("t", rate_tps=1e6)])
        assert "recovery" not in service.health_report()
        service.record_chaos_report(report)
        recovery = service.health_report()["recovery"]
        assert recovery["ok"] is True
        assert recovery["kill_at"] == report.kill_at
        assert recovery["shards"]
