"""The mechanics all three chaos drills share — one controller, one
service shard, one redundant bank lost — checked over each of them."""

from functools import partial

import pytest

from repro.core import EnvyConfig, EnvyController
from repro.core.chaos import drill, run_chaos, sweep_kill_points
from repro.service import ServiceConfig
from repro.service.chaos import run_redundancy_chaos, run_service_chaos

CORE = EnvyConfig.small(num_segments=10, pages_per_segment=16,
                        checkpoint_interval_flushes=6)
SERVICE = ServiceConfig(num_shards=2, num_segments=4, pages_per_segment=16,
                        seed=3)
MIRROR = ServiceConfig(num_shards=3, num_segments=4, pages_per_segment=16,
                       redundancy="mirror", seed=5)

#: Each drill with its workload bound, and a call naming a bad victim.
DRILLS = {
    "core": (partial(run_chaos, CORE, transactions=6, seed=0),
             lambda: drill([EnvyController(CORE)], 1, None)),
    "service": (partial(run_service_chaos, SERVICE, duration_s=0.002),
                lambda: run_service_chaos(SERVICE, kill_shard=9)),
    "redundancy": (partial(run_redundancy_chaos, MIRROR, duration_s=4e-4),
                   lambda: run_redundancy_chaos(MIRROR, victim=9)),
}


@pytest.fixture(scope="module", params=list(DRILLS))
def case(request):
    """A drill, its bad-victim call, and its uninterrupted dry run."""
    run, bad_victim = DRILLS[request.param]
    return run, bad_victim, run(kill_at=None)


class TestDrillMechanics:
    def test_dry_run_sizes_the_kill_point_space(self, case):
        _, _, dry = case
        assert dry.ops_seen > 10
        assert dry.ok and not dry.interrupted

    def test_mid_run_kill_recovers(self, case):
        run, _, dry = case
        report = run(kill_at=dry.ops_seen // 2)
        assert report.interrupted and report.ok, report.checks
        assert report.shards and report.reports

    def test_kill_past_the_end_never_fires(self, case):
        run, _, dry = case
        report = run(kill_at=dry.ops_seen + 100)
        assert report.ok and not report.interrupted

    def test_same_seed_same_report(self, case):
        run, _, dry = case
        assert run(kill_at=dry.ops_seen // 3) == run(kill_at=dry.ops_seen // 3)

    def test_bad_victim_raises_index_error(self, case):
        with pytest.raises(IndexError):
            case[1]()

    def test_sampled_torn_sweep_is_all_ok(self, case):
        run, _, dry = case
        reports = sweep_kill_points(partial(run, tear=True),
                                    dry.ops_seen // 6, clean_loss=True)
        assert len(reports) > 6
        assert [r.kill_at for r in reports if not r.ok] == []
