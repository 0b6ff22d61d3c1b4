"""Property tests: power loss at every Flash operation is recoverable.

The chaos harness replays a seeded TPC-A workload, cuts the power at a
chosen Flash program or erase, recovers from the surviving array alone,
and compares every logical page against the oracle of committed
flushes.  The property under test: *whatever the kill point — even
with a torn in-flight program, even with device faults firing — the
recovered store is exactly the committed prefix of the run.*
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.core import EnvyConfig, EnvyController, recover_from_flash
from repro.core.chaos import KillSwitch, run_chaos, sweep_kill_points
from repro.core.recovery import SimulatedPowerFailure
from repro.faults import FaultPlan

CONFIG_KW = dict(num_segments=10, pages_per_segment=16,
                 checkpoint_interval_flushes=6)

#: Fault rates high enough to fire within a short run: transient
#: program/erase failures and read flips all occur across the sweep.
PLAN = FaultPlan(seed=11, read_flip_rate=2e-5,
                 transient_program_rate=5e-3, transient_erase_rate=5e-3)


def failures(results):
    return [(r.kill_at, len(r.mismatches)) for r in results if not r.ok]


def sweep(config, transactions, stride=1, tear=False):
    return sweep_kill_points(partial(run_chaos, config, transactions,
                                     tear=tear), stride, recover=False)


class TestKillEveryOperation:
    def test_every_kill_point_recovers_committed_prefix(self):
        results = sweep(EnvyConfig.small(**CONFIG_KW), transactions=6)
        assert results, "sweep produced no kill points"
        assert failures(results) == []
        # Sanity: the sweep actually interrupted runs mid-flight.
        assert all(r.interrupted for r in results)
        assert any(r.committed_pages for r in results)

    def test_every_kill_point_under_device_faults(self):
        config = EnvyConfig.small(fault_plan=PLAN, **CONFIG_KW)
        results = sweep(config, transactions=6)
        assert results
        assert failures(results) == []

    def test_torn_programs_sampled(self):
        results = sweep(EnvyConfig.small(**CONFIG_KW), transactions=6,
                        stride=3, tear=True)
        assert results
        assert failures(results) == []
        # At least one kill actually landed on a program and tore it.
        assert any(r.reports[0].torn_writes_demoted for r in results)

    def test_torn_programs_under_device_faults(self):
        config = EnvyConfig.small(fault_plan=PLAN, **CONFIG_KW)
        results = sweep(config, transactions=6, stride=5, tear=True)
        assert results
        assert failures(results) == []


class TestHarnessMechanics:
    def test_killswitch_detach_restores_array(self):
        config = EnvyConfig.small(**CONFIG_KW)
        ctrl = EnvyController(config)
        switch = KillSwitch(ctrl.array, kill_at=1)
        with pytest.raises(SimulatedPowerFailure):
            ctrl.array.program_page(0, bytes(config.page_bytes))
        switch.detach()
        switch.detach()  # idempotent
        assert ctrl.array.pre_op_hooks == []
        # Nothing was ever assigned over the array's methods.
        assert "program_page" not in ctrl.array.__dict__
        assert "erase_segment" not in ctrl.array.__dict__


class TestSecondRecoveryIdempotent:
    def test_recover_twice_from_killed_array(self):
        config = EnvyConfig.small(**CONFIG_KW)
        ctrl = EnvyController(config)
        ctrl.store.preserve_flushed_copies = True
        switch = KillSwitch(ctrl.array, kill_at=25)
        page_bytes = config.page_bytes
        with pytest.raises(SimulatedPowerFailure):
            for stamp in range(10_000):
                page = (stamp * 7) % config.logical_pages
                ctrl.write(page * page_bytes,
                           stamp.to_bytes(8, "little"))
        switch.detach()
        first, report1 = recover_from_flash(ctrl.array, config)
        first.check_consistency()
        second, report2 = recover_from_flash(first.array, config)
        second.check_consistency()
        for page in range(config.logical_pages):
            assert first.read(page * page_bytes, page_bytes) == \
                second.read(page * page_bytes, page_bytes), \
                f"second recovery changed page {page}"


class TestBackendChaosParity:
    """The recovery property holds below any storage backend (PR-10).

    ``run_chaos`` builds the controller from the config, so
    ``config.backend`` selects the substrate; the committed-prefix
    guarantee must survive a power cut whether the cells live in the
    default simulated array, a write-through image file, or an
    ONFI-modelled part with factory bad blocks.
    """

    def test_file_backend_every_kill_point(self, tmp_path):
        config = replace(
            EnvyConfig.small(**CONFIG_KW),
            backend=f"file:path={tmp_path / 'chaos.img'}")
        results = sweep(config, transactions=4, stride=2)
        assert results
        assert failures(results) == []
        assert all(r.interrupted for r in results)

    def test_file_backend_torn_program_persists_torn(self, tmp_path):
        config = replace(
            EnvyConfig.small(**CONFIG_KW),
            backend=f"file:path={tmp_path / 'torn.img'}")
        results = sweep(config, transactions=4, stride=3, tear=True)
        assert results
        assert failures(results) == []
        # The tear went through the write-through override, so at
        # least one sweep point demoted a torn copy during recovery.
        assert any(r.reports[0].torn_writes_demoted for r in results)

    def test_onfi_backend_every_kill_point(self):
        config = replace(EnvyConfig.small(reserve_segments=2,
                                          **CONFIG_KW),
                         backend="onfi:factory_bad=1,bb_seed=7")
        results = sweep(config, transactions=4, stride=2)
        assert results
        assert failures(results) == []

    @pytest.mark.parametrize("kind", ["program", "erase"])
    @pytest.mark.parametrize("backend", ["file", "onfi", "ramdisk"])
    def test_cut_operation_never_reaches_the_medium(self, backend, kind,
                                                    tmp_path):
        """The kill switch hooks the base class, inside the backend's
        override: the cut must still land before the medium — no bus
        sequence, no FAIL status, no device write, no image byte."""
        image = tmp_path / "cut.img"
        spec = f"file:path={image}" if backend == "file" else backend
        ctrl = EnvyController(replace(EnvyConfig.small(**CONFIG_KW),
                                      backend=spec))
        array = ctrl.array

        def medium():
            state = dict(array.media_report(),
                         status=getattr(array, "status_register", None))
            if backend == "file":
                state["image"] = image.read_bytes()
            elif backend == "ramdisk":
                state["image"] = bytes(array.image.data)
            return state

        found = []

        def arm_on_kind(op_kind, segment, data, oob):
            # Registered before the switch, so it runs first: arming
            # here makes the switch cut this very operation.
            if op_kind == kind and switch.ops >= 20 and not found:
                found.append(medium())
                switch.arm(1)

        array.pre_op_hooks.append(arm_on_kind)
        page_bytes = ctrl.config.page_bytes
        with KillSwitch(array) as switch, \
                pytest.raises(SimulatedPowerFailure):
            for stamp in range(10_000):
                page = (stamp * 7) % ctrl.config.logical_pages
                ctrl.write(page * page_bytes, stamp.to_bytes(8, "little"))
        assert found and medium() == found[0]

    def test_backend_kill_points_match_default(self, tmp_path):
        # Placement is backend-independent, so the kill-point space
        # (the number of Flash ops the run issues) is too.
        base = EnvyConfig.small(**CONFIG_KW)
        dry = run_chaos(base, transactions=4, recover=False)
        file_cfg = replace(
            base, backend=f"file:path={tmp_path / 'dry.img'}")
        file_dry = run_chaos(file_cfg, transactions=4, recover=False)
        assert file_dry.ops_seen == dry.ops_seen
