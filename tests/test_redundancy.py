"""Cross-bank redundancy: policy math, degraded serving, rebuild,
rebalancing."""

import pytest

from repro.service import (DegradedModeError, EnvyService, MirrorPolicy,
                           ParityPolicy, ServiceConfig, ShardRouter,
                           TenantSpec, make_policy, plan_rebalance)

MIRROR = ServiceConfig(num_shards=3, num_segments=4, pages_per_segment=16,
                       redundancy="mirror", store_data=True,
                       prewarm_turnovers=0.0, seed=7)
PARITY = ServiceConfig(num_shards=3, num_segments=4, pages_per_segment=16,
                       redundancy="parity", store_data=True,
                       prewarm_turnovers=0.0, seed=7)
TENANTS = [TenantSpec("t", rate_tps=4e6, skew=0.8, write_fraction=0.5)]
DURATION = 0.0002


def payload(page, config):
    return bytes([page % 251] * 8) + bytes(config.page_bytes - 8)


class TestMakePolicy:
    def test_specs_parse(self):
        assert make_policy("none").name == "none"
        assert make_policy("mirror").copies == 2
        assert make_policy("mirror:3").copies == 3
        assert make_policy("mirror:3").write_fanout == 3
        assert make_policy("parity").name == "parity"

    def test_bad_specs_rejected(self):
        for spec in ("mirror:x", "mirror:1", "raid6", ""):
            with pytest.raises(ValueError):
                make_policy(spec)


class TestMirrorPlacement:
    def test_capacity_shrinks_to_regions(self):
        router = ShardRouter(4, 8, policy=MirrorPolicy(2))
        assert router.num_pages == 4 * 4

    def test_placements_are_disjoint_and_invertible(self):
        router = ShardRouter(4, 8, policy=MirrorPolicy(2))
        seen = set()
        for page in range(router.num_pages):
            slots = router.placements(page)
            banks = [bank for bank, _ in slots]
            assert len(set(banks)) == len(slots) == 2
            for slot in slots:
                assert slot not in seen
                seen.add(slot)
                assert router.page_of_slot(slot) == page
        assert len(seen) == 4 * 8

    def test_unused_tail_maps_to_no_page(self):
        router = ShardRouter(4, 7, policy=MirrorPolicy(2))
        assert router.num_pages == 4 * 3
        assert router.page_of_slot((0, 6)) is None

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            ShardRouter(2, 8, policy=MirrorPolicy(3))
        with pytest.raises(ValueError):
            ShardRouter(4, 1, policy=MirrorPolicy(2))

    def test_read_groups_are_single_replicas(self):
        router = ShardRouter(3, 9, policy=MirrorPolicy(3))
        groups = router.read_groups(0)
        assert len(groups) == 2
        assert all(len(group) == 1 for group in groups)


class TestParityPlacement:
    def test_capacity_loses_one_bank(self):
        router = ShardRouter(4, 8, policy=ParityPolicy())
        assert router.num_pages == 3 * 8

    def test_parity_rotates_and_data_skips_it(self):
        router = ShardRouter(4, 8, policy=ParityPolicy())
        for page in range(router.num_pages):
            primary, parity = router.placements(page)
            stripe = primary[1]
            assert parity == (stripe % 4, stripe)
            assert primary[0] != parity[0]

    def test_reconstruction_group_is_the_whole_stripe(self):
        router = ShardRouter(4, 8, policy=ParityPolicy())
        (group,) = router.read_groups(5)
        bank, stripe = router.route(5)
        assert group == [(peer, stripe) for peer in range(4)
                         if peer != bank]

    def test_parity_slot_serves_no_logical_page(self):
        router = ShardRouter(3, 4, policy=ParityPolicy())
        for stripe in range(4):
            assert router.page_of_slot((stripe % 3, stripe)) is None

    def test_requires_striped_placement_and_three_banks(self):
        with pytest.raises(ValueError):
            ShardRouter(4, 8, placement="ranged", policy=ParityPolicy())
        with pytest.raises(ValueError):
            ShardRouter(2, 8, policy=ParityPolicy())


class TestRemap:
    def test_swap_is_a_permutation_and_reversible(self):
        router = ShardRouter(4, 8, policy=MirrorPolicy(2))
        a, b = 1, 10
        before_a, before_b = router.route(a), router.route(b)
        router.swap(a, b)
        assert router.route(a) == before_b
        assert router.route(b) == before_a
        assert router.remapped_pages == 2
        assert router.global_page(*router.route(a)) == a
        router.swap(a, b)
        assert router.remapped_pages == 0
        assert router.route(a) == before_a

    def test_is_plain_tracks_policy_placement_and_remap(self):
        plain = ShardRouter(4, 8)
        assert plain.is_plain
        plain.swap(0, 1)
        assert not plain.is_plain
        assert not ShardRouter(4, 8, policy=MirrorPolicy(2)).is_plain
        assert not ShardRouter(4, 8, placement="ranged").is_plain

    def test_rebuild_plan_without_redundancy_raises(self):
        with pytest.raises(DegradedModeError):
            ShardRouter(4, 8).rebuild_plan(0)


class TestPlanRebalance:
    def test_hot_bank_is_flattened(self):
        router = ShardRouter(4, 8, placement="ranged")
        loads = {page: 100 for page in range(8)}          # all on bank 0
        loads.update({page: 1 for page in range(8, 32)})
        swaps = plan_rebalance(router, loads, max_moves=16,
                               tolerance=1.10)
        assert swaps

        def bank_loads():
            totals = [0] * 4
            for page, load in loads.items():
                totals[router.route(page)[0]] += load
            return totals

        peak_before = max(bank_loads())
        for hot, cold in swaps:
            router.swap(hot, cold)
        after = bank_loads()
        assert max(after) < peak_before
        assert max(after) / (sum(after) / 4) <= 1.5


class TestDegradedServing:
    @pytest.mark.parametrize("config", [MIRROR, PARITY],
                             ids=["mirror", "parity"])
    def test_single_bank_loss_keeps_every_page_readable(self, config):
        service = EnvyService(config, TENANTS)
        pages = service.router.num_pages
        for page in range(pages):
            service.write_page(page, payload(page, config))
        service.kill_bank(1)
        assert service.degraded
        for page in range(pages):
            assert service.read_page(page) == payload(page, config)

    def test_degraded_writes_keep_survivors_consistent(self):
        service = EnvyService(MIRROR, TENANTS)
        service.kill_bank(0)
        fresh = bytes([0xAB] * MIRROR.page_bytes)
        for page in range(service.router.num_pages):
            service.write_page(page, fresh)
            assert service.read_page(page) == fresh

    def test_exhausted_redundancy_raises(self):
        service = EnvyService(MIRROR, TENANTS)
        for page in range(service.router.num_pages):
            service.write_page(page, payload(page, MIRROR))
        service.kill_bank(0)
        service.kill_bank(1)
        doomed = [page for page in range(service.router.num_pages)
                  if {bank for bank, _ in
                      service.router.placements(page)} <= {0, 1}]
        assert doomed
        with pytest.raises(DegradedModeError):
            service.read_page(doomed[0])

    def test_parity_reads_nothing_from_a_rebuilding_bank(self):
        """A parity write whose data or parity bank is rebuilding folds
        the rest of the stripe: ``partition`` charges no read on the
        rebuilding bank, only the program that keeps it current."""
        service = EnvyService(PARITY, TENANTS)
        service.kill_bank(1)
        service.replace_bank(1)
        router = service.router
        touching = [page for page in range(router.num_pages)
                    if 1 in (bank for bank, _ in router.placements(page))]
        assert {router.route(page)[0] == 1 for page in touching} == {
            True, False}
        for page in touching:
            rows = service.partition([(0, 0, 0, True, page)])[1]
            assert [row[3] for row in rows] == [True]

    def test_dead_primary_with_a_rebuilding_stripe_peer_is_refused(self):
        """The reconstruct-write of a dead primary needs every other data
        member of the stripe: with one rebuilding, both paths refuse."""
        service = EnvyService(PARITY, TENANTS)
        for page in range(service.router.num_pages):
            service.write_page(page, payload(page, PARITY))
        service.kill_bank(0)
        service.kill_bank(1)
        service.replace_bank(1)
        router = service.router
        page = next(page for page in range(router.num_pages)
                    if [bank for bank, _ in router.placements(page)]
                    == [0, 2])
        with pytest.raises(DegradedModeError):
            service.partition([(0, 0, 0, True, page)])
        with pytest.raises(DegradedModeError):
            service.write_page(page, payload(page, PARITY))

    @pytest.mark.parametrize("config", [MIRROR, PARITY],
                             ids=["mirror", "parity"])
    def test_each_degraded_request_is_marked_once(self, config):
        """A request served past an unhealthy primary emits exactly one
        ``redundancy.degraded`` mark on either path — a parity write
        reads no old content through the degraded-read path."""
        service = EnvyService(config, TENANTS)
        router = service.router
        for page in range(router.num_pages):
            service.write_page(page, payload(page, config))
        service.kill_bank(1)
        marks = []
        service.events.subscribe(lambda event: marks.append(
            (event.data["page"], event.data["source"])),
            prefix="redundancy.degraded")
        page = next(page for page in range(router.num_pages)
                    if router.route(page)[0] == 1)
        service.write_page(page, payload(page, config))
        service.write_page(page, bytes(8))          # sub-page write
        service.read_page(page)
        service.partition([(0, 0, 0, True, page), (0, 0, 1, False, page)])
        assert marks == [(page, "write"), (page, "write"), (page, "read"),
                         (page, "write"), (page, "read")]

    def test_plain_service_cannot_survive(self):
        config = ServiceConfig(num_shards=2, num_segments=4,
                               pages_per_segment=16, store_data=True,
                               prewarm_turnovers=0.0)
        service = EnvyService(config, TENANTS)
        service.kill_bank(1)
        with pytest.raises(DegradedModeError):
            service.read_page(1)


class TestOnlineRebuild:
    @pytest.mark.parametrize("config", [MIRROR, PARITY],
                             ids=["mirror", "parity"])
    def test_rebuild_restores_the_bank_verified(self, config):
        service = EnvyService(config, TENANTS)
        pages = service.router.num_pages
        for page in range(pages):
            service.write_page(page, payload(page, config))
        service.kill_bank(2)
        scheduler = service.replace_bank(2, pages_per_step=8)
        with pytest.raises(RuntimeError):
            scheduler.finish()          # not done yet
        scheduler.run_to_completion()
        assert scheduler.verify() == 0
        scheduler.finish(verify=True)
        assert service.bank_state(2) == "healthy"
        assert not service.degraded
        # The rebuilt bank is trustworthy: lose a *different* bank and
        # serve every page from the survivors, rebuilt copy included.
        service.kill_bank(0)
        for page in range(pages):
            assert service.read_page(page) == payload(page, config)

    def test_writes_during_rebuild_reach_the_replacement(self):
        service = EnvyService(MIRROR, TENANTS)
        pages = service.router.num_pages
        for page in range(pages):
            service.write_page(page, payload(page, MIRROR))
        service.kill_bank(1)
        scheduler = service.replace_bank(1, pages_per_step=4)
        scheduler.step()
        fresh = bytes([0x5C] * MIRROR.page_bytes)
        service.write_page(0, fresh)    # mid-rebuild foreground write
        scheduler.run_to_completion()
        scheduler.finish(verify=True)
        assert service.read_page(0) == fresh

    def test_parity_folds_past_a_rebuilding_parity_bank(self):
        """A write whose parity slot is on the rebuilding bank folds the
        stripe's healthy data members, not the untrusted old parity:
        the rebuilt bank verifies and serves through a second loss."""
        service = EnvyService(PARITY, TENANTS)
        pages = service.router.num_pages
        for page in range(pages):
            service.write_page(page, payload(page, PARITY))
        service.kill_bank(2)
        scheduler = service.replace_bank(2, pages_per_step=8)
        scheduler.step()
        fresh = bytes([0x3D] * PARITY.page_bytes)
        folded = [page for page in range(pages)
                  if service.router.placements(page)[1][0] == 2]
        for page in folded:
            service.write_page(page, fresh)
        scheduler.run_to_completion()
        scheduler.finish(verify=True)
        service.kill_bank(0)
        for page in range(pages):
            assert service.read_page(page) == (
                fresh if page in folded else payload(page, PARITY))

    def test_only_dead_banks_can_be_replaced(self):
        service = EnvyService(MIRROR, TENANTS)
        with pytest.raises(ValueError):
            service.replace_bank(0)

    def test_rebuild_copies_only_from_healthy_peers(self):
        """Two banks rebuild side by side under 3-way mirroring: bank 1
        must copy from bank 0 alone, never from the blank bank 2, or it
        verifies against the same blanks and then serves them once bank
        0 is lost too."""
        config = ServiceConfig(num_shards=3, num_segments=4,
                               pages_per_segment=16, redundancy="mirror:3",
                               store_data=True, prewarm_turnovers=0.0,
                               seed=7)
        service = EnvyService(config, TENANTS)
        pages = service.router.num_pages
        for page in range(pages):
            service.write_page(page, payload(page, config))
        service.kill_bank(1)
        service.kill_bank(2)
        scheduler = service.replace_bank(1)
        service.replace_bank(2)
        scheduler.run_to_completion()
        scheduler.finish(verify=True)
        service.kill_bank(0)
        assert [page for page in range(pages)
                if service.read_page(page) != payload(page, config)] == []

    def test_a_rebuild_without_a_healthy_source_is_refused(self):
        """A mirror slot whose only other copy is on a dead bank has
        nothing to rebuild from: the in-process step and a scheduled run
        both raise instead of charging a program from no source (the
        tenant only writes, which a dead replica never refuses)."""
        service = EnvyService(MIRROR, [TenantSpec("w", rate_tps=4e6,
                                                  write_fraction=1.0)])
        service.kill_bank(1)
        scheduler = service.replace_bank(1)
        service.kill_bank(2)
        region = service.router.pages_per_shard // 2
        assert scheduler.plan[0] == {"local": 0, "groups": [[(2, region)]],
                                     "page": 1}
        with pytest.raises(DegradedModeError):
            service.run(DURATION)
        with pytest.raises(DegradedModeError):
            scheduler.step()

    def test_a_killed_bank_is_never_revived(self):
        """A killed bank missed every write made while it was dead: it
        returns to service only replaced and rebuilt."""
        service = EnvyService(MIRROR, TENANTS)
        service.write_page(0, payload(0, MIRROR))
        bank = service.router.route(0)[0]
        service.kill_bank(bank)
        with pytest.raises(ValueError):
            service.mark_bank_healthy(bank)
        assert service.read_page(0) == payload(0, MIRROR)
        scheduler = service.replace_bank(bank)
        with pytest.raises(ValueError):
            service.mark_bank_healthy(bank)     # rebuild not finished
        scheduler.run_to_completion()
        scheduler.finish(verify=True)
        assert service.bank_state(bank) == "healthy"
        assert service.read_page(0) == payload(0, MIRROR)


class TestRedundantServiceRun:
    @pytest.mark.parametrize("config", [MIRROR, PARITY],
                             ids=["mirror", "parity"])
    def test_jobs_setting_never_changes_results(self, config):
        baseline = EnvyService(config, TENANTS).run(DURATION,
                                                    jobs=1).as_dict()
        fanned = EnvyService(config, TENANTS).run(DURATION,
                                                  jobs=2).as_dict()
        assert fanned == baseline
        assert baseline["replica_accesses"] > 0

    def test_health_report_has_a_redundancy_section(self):
        service = EnvyService(MIRROR, TENANTS)
        service.run(DURATION)
        info = service.health_report()["redundancy"]
        assert info["policy"] == "mirror"
        assert info["write_fanout"] == 2
        assert info["survivable_bank_losses"] == 1
        assert [bank["state"] for bank in info["banks"]] == ["healthy"] * 3

    def test_degraded_run_counts_and_reports(self):
        service = EnvyService(MIRROR, TENANTS)
        service.kill_bank(1)
        stats = service.run(DURATION)
        assert stats.degraded_reads > 0
        info = service.health_report()["redundancy"]
        assert info["degraded"]
        assert info["banks"][1]["state"] == "dead"

    def test_rebuild_traffic_charged_into_the_run(self):
        service = EnvyService(MIRROR, TENANTS)
        service.kill_bank(1)
        scheduler = service.replace_bank(1)
        stats = service.run(0.0004)
        assert stats.rebuild_accesses > 0
        assert scheduler.position > 0


class TestRetry:
    CHOKED = ServiceConfig(num_shards=2, num_segments=8,
                           pages_per_segment=32, queue_capacity=4, seed=3)
    LOAD = [TenantSpec("burst", rate_tps=3e7, skew=0.6,
                       write_fraction=0.3)]

    def test_bounded_retry_reduces_rejections_deterministically(self):
        plain = EnvyService(self.CHOKED, self.LOAD).run(DURATION)
        assert plain.requests_rejected_queue > 0
        assert plain.requests_retried == 0

        patient = ServiceConfig(**{**self.CHOKED.__dict__,
                                   "retry_limit": 3})
        retried = EnvyService(patient, self.LOAD).run(DURATION)
        assert retried.requests_retried > 0
        assert (retried.requests_rejected_queue
                < plain.requests_rejected_queue)
        again = EnvyService(patient, self.LOAD).run(DURATION, jobs=2)
        assert again.as_dict() == retried.as_dict()

    def test_retry_limit_zero_is_the_legacy_behaviour(self):
        explicit = ServiceConfig(**{**self.CHOKED.__dict__,
                                    "retry_limit": 0,
                                    "retry_backoff_ns": 9999})
        assert (EnvyService(explicit, self.LOAD).run(DURATION).as_dict()
                == EnvyService(self.CHOKED,
                               self.LOAD).run(DURATION).as_dict())

    def test_retry_config_validated(self):
        with pytest.raises(ValueError):
            ServiceConfig(retry_limit=-1).validate()
        with pytest.raises(ValueError):
            ServiceConfig(retry_limit=2, retry_backoff_ns=0).validate()
