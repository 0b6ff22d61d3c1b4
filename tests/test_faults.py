"""Device fault injection and the fault-tolerance layer (repro.faults).

The paper assumes benign devices (Section 2: wear only slows programs
and erases).  These tests exercise the production-hardening layer: the
deterministic fault injector, SEC-DED ECC, bounded program/erase retry,
and bad-block retirement — and verify the acceptance criteria: a
workload under a nonzero fault plan completes with zero uncorrectable
data errors, the health report shows the defences working, the same
seed reproduces identical counters, and an all-zero plan changes
nothing.
"""

import dataclasses
import random

import pytest

from repro.backends import RunTrace
from repro.cleaning.store import StoreError
from repro.core import EnvyConfig, EnvySystem
from repro.faults import (BadBlockTable, FaultInjector, FaultPlan, SecDed,
                          secded_for)
from repro.flash import (EnduranceExceeded, FlashArray,
                         TransientProgramError)
from repro.flash.errors import BadBlockError


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_presets_validate(self):
        for plan in (FaultPlan.none(), FaultPlan.light(3),
                     FaultPlan.harsh(3)):
            plan.validate()

    def test_zero_plan_detected(self):
        assert FaultPlan.none().is_zero()
        assert not FaultPlan.light().is_zero()

    @pytest.mark.parametrize("field", FaultPlan._RATES)
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError):
            dataclasses.replace(FaultPlan(), **{field: 1.5}).validate()
        with pytest.raises(ValueError):
            dataclasses.replace(FaultPlan(), **{field: -0.1}).validate()

    def test_config_validates_plan(self):
        bad = dataclasses.replace(FaultPlan(), read_flip_rate=2.0)
        with pytest.raises(ValueError):
            EnvyConfig.small(num_segments=8, pages_per_segment=16,
                             fault_plan=bad)

    def test_config_validates_fault_knobs(self):
        with pytest.raises(ValueError):
            EnvyConfig.small(num_segments=8, pages_per_segment=16,
                             program_retries=-1)
        with pytest.raises(ValueError):
            EnvyConfig.small(num_segments=8, pages_per_segment=16,
                             ecc_check_ns=-5)
        with pytest.raises(ValueError):
            EnvyConfig.small(num_segments=8, pages_per_segment=16,
                             reserve_segments=-1)


# ----------------------------------------------------------------------
# SEC-DED ECC
# ----------------------------------------------------------------------

class TestSecDed:
    def test_clean_roundtrip(self):
        ecc = SecDed(32)
        data = bytes(range(32))
        code = ecc.encode(data)
        status, out, fixed = ecc.check(data, code)
        assert (status, out, fixed) == ("ok", data, 0)

    def test_corrects_every_single_bit_flip(self):
        ecc = SecDed(16)
        rng = random.Random(5)
        data = bytes(rng.randrange(256) for _ in range(16))
        code = ecc.encode(data)
        for bit in range(16 * 8):
            corrupted = bytearray(data)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            status, out, fixed = ecc.check(bytes(corrupted), code)
            assert status == "corrected" and out == data and fixed == 1

    def test_detects_double_bit_flips(self):
        ecc = SecDed(16)
        rng = random.Random(6)
        data = bytes(rng.randrange(256) for _ in range(16))
        code = ecc.encode(data)
        for _ in range(100):
            first, second = rng.sample(range(16 * 8), 2)
            corrupted = bytearray(data)
            corrupted[first // 8] ^= 1 << (first % 8)
            corrupted[second // 8] ^= 1 << (second % 8)
            status, _, _ = ecc.check(bytes(corrupted), code)
            assert status == "uncorrectable"

    def test_codec_cache_shared(self):
        assert secded_for(256) is secded_for(256)


# ----------------------------------------------------------------------
# Injector determinism
# ----------------------------------------------------------------------

def drive(injector, operations=3000):
    rng = random.Random(99)  # op sequence, independent of fault draws
    for _ in range(operations):
        op = rng.randrange(3)
        segment = rng.randrange(8)
        if op == 0:
            injector.program_fails(segment)
        elif op == 1:
            injector.erase_verdict(segment, rng.random() * 0.01)
        else:
            injector.corrupt_read(bytes(64), segment)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(FaultPlan.harsh(seed=21))
        b = FaultInjector(FaultPlan.harsh(seed=21))
        drive(a)
        drive(b)
        assert a.event_log == b.event_log
        assert a.event_log  # the harsh plan actually fired
        assert a.schedule_digest() == b.schedule_digest()

    def test_different_seed_different_schedule(self):
        a = FaultInjector(FaultPlan.harsh(seed=21))
        b = FaultInjector(FaultPlan.harsh(seed=22))
        drive(a)
        drive(b)
        assert a.event_log != b.event_log

    def test_zero_plan_never_fires(self):
        injector = FaultInjector(FaultPlan.none())
        drive(injector)
        assert not injector.active
        assert injector.event_log == []


# ----------------------------------------------------------------------
# Chip and array integration
# ----------------------------------------------------------------------

def small_array(**plan_fields):
    flash = EnvyConfig.small(num_segments=8, pages_per_segment=16).flash
    array = FlashArray(flash, 256, store_data=True, spare_segments=1)
    injector = FaultInjector(FaultPlan(seed=4, **plan_fields))
    return array, injector


class TestArrayFaults:
    def test_program_retry_absorbs_transients(self):
        array, injector = small_array(transient_program_rate=0.5)
        observed = []
        array.attach_faults(injector=injector, program_retries=50,
                            op_observer=lambda *a: observed.append(a))
        for segment in range(4):
            for _ in range(16):
                array.program_page(segment, b"x" * 256)
        assert array.fault_stats.program_retries > 0
        assert array.fault_stats.program_retry_exhausted == 0
        assert observed  # each retry was reported for time accounting
        assert all(kind == "retry_program" for kind, _, _ in observed)

    def test_exhausted_program_retries_raise(self):
        array, injector = small_array(transient_program_rate=1.0)
        array.attach_faults(injector=injector, program_retries=2)
        with pytest.raises(TransientProgramError):
            array.program_page(0, b"x" * 256)
        assert array.fault_stats.program_retry_exhausted == 1

    def test_transient_program_leaves_cells_untouched(self):
        array, injector = small_array(transient_program_rate=1.0)
        array.attach_faults(injector=injector, program_retries=0)
        with pytest.raises(TransientProgramError):
            array.program_page(0, b"x" * 256)
        assert array.segment(0).is_erased
        array.attach_faults()
        assert array.program_page(0, b"y" * 256)[0] == 0
        assert array.read_page(0, 0) == b"y" * 256

    def test_ecc_corrects_injected_flip(self):
        array, injector = small_array(read_flip_rate=1.0)
        array.attach_faults(injector=injector, ecc=secded_for(256))
        array.program_page(0, bytes(range(256)))
        assert array.read_page(0, 0) == bytes(range(256))
        assert array.fault_stats.ecc_corrected_reads == 1
        assert array.fault_stats.silent_corrupt_reads == 0

    def test_flip_without_ecc_is_silent_corruption(self):
        array, injector = small_array(read_flip_rate=1.0)
        array.attach_faults(injector=injector)  # no ECC
        array.program_page(0, bytes(range(256)))
        assert array.read_page(0, 0) != bytes(range(256))
        assert array.fault_stats.silent_corrupt_reads == 1

    def test_permanent_erase_failure_marks_block_bad(self):
        array, injector = small_array(permanent_erase_rate=1.0)
        array.attach_faults(injector=injector)
        array.program_page(2, b"y" * 256)
        array.invalidate_page(2, 0)
        with pytest.raises(BadBlockError):
            array.erase_segment(2)
        assert array.segment(2).is_bad
        assert [s.segment_id for s in array.segments if s.is_bad] == [2]
        with pytest.raises(BadBlockError):
            array.program_page(2, b"z" * 256)
        with pytest.raises(BadBlockError):
            array.erase_segment(2)


# ----------------------------------------------------------------------
# BadBlockTable
# ----------------------------------------------------------------------

class TestBadBlockTable:
    def test_retire_hands_out_reserves_in_order(self):
        table = BadBlockTable()
        table.provision([9, 10])
        assert table.retire(3, "permanent") == 9
        assert table.retire(5, "grown_bad") == 10
        assert table.retire(7, "permanent") is None  # exhausted
        assert {3, 5} <= set(table.retired)
        assert len(table.retired) == 3
        assert table.reserve == []


# ----------------------------------------------------------------------
# Controller end-to-end (the acceptance scenario)
# ----------------------------------------------------------------------

FAULTY = dataclasses.replace(
    FaultPlan.harsh(seed=7), permanent_erase_rate=5e-4,
    grown_bad_rate=1e-3)


def faulty_config(**overrides):
    return EnvyConfig.small(num_segments=8, pages_per_segment=16,
                            fault_plan=FAULTY, reserve_segments=6,
                            **overrides)


def run_workload(system, writes=6000, seed=1):
    rng = random.Random(seed)
    page_bytes = system.config.page_bytes
    num_pages = system.size_bytes // page_bytes
    shadow = {}
    for _ in range(writes):
        page = rng.randrange(num_pages)
        data = bytes([rng.randrange(256)]) * page_bytes
        system.write(page * page_bytes, data)
        shadow[page] = data
        if rng.random() < 0.25:
            probe = rng.randrange(num_pages)
            expected = shadow.get(probe, bytes(page_bytes))
            assert system.read(probe * page_bytes, page_bytes) == expected
    system.drain()
    return shadow


class TestControllerUnderFaults:
    def test_no_data_loss_and_health_counters(self):
        system = EnvySystem(faulty_config())
        shadow = run_workload(system)
        page_bytes = system.config.page_bytes
        for page, data in shadow.items():
            assert system.read(page * page_bytes, page_bytes) == data
        system.check_consistency()
        report = system.health_report()
        assert report["fault_injection_active"] and report["ecc_enabled"]
        # The defences demonstrably worked:
        assert report["program_retries"] > 0
        assert report["erase_retries"] > 0
        assert report["ecc_corrected_reads"] > 0
        # ...and nothing slipped through them:
        assert report["ecc_uncorrectable_reads"] == 0
        assert report["silent_corrupt_reads"] == 0
        assert report["program_retry_exhausted"] == 0
        # The metrics mirror agrees with the array's own counters.
        assert system.metrics.program_retries == report["program_retries"]
        assert system.metrics.erase_retries == report["erase_retries"]
        assert system.metrics.ecc_corrected == \
            report["ecc_corrected_reads"]
        # Retries cost time through the existing cost model.
        assert system.metrics.busy_ns["retry"] > 0

    def test_bad_block_retirement_shrinks_the_pool(self):
        system = EnvySystem(faulty_config())
        run_workload(system, writes=8000, seed=2)
        report = system.health_report()
        assert report["bad_blocks_retired"] >= 1
        assert report["retired_segments"]
        assert report["reserves_remaining"] == \
            6 - report["bad_blocks_retired"]
        assert report["active_segments"] == 9  # positions + spare
        system.check_consistency()
        # Retired segments are really out of the rotation.
        in_rotation = set(system.store.active_phys())
        assert not in_rotation & set(report["retired_segments"])

    def test_reserve_exhaustion_is_a_store_error(self):
        plan = FaultPlan(seed=1, permanent_erase_rate=1.0)
        system = EnvySystem(EnvyConfig.small(
            num_segments=8, pages_per_segment=16, fault_plan=plan,
            reserve_segments=1))
        with pytest.raises(StoreError):
            run_workload(system, writes=2000)

    def test_deterministic_replay(self):
        """Same plan seed -> identical schedules and health reports."""
        reports, digests = [], []
        for _ in range(2):
            system = EnvySystem(faulty_config())
            run_workload(system, writes=5000, seed=3)
            reports.append(system.health_report())
            digests.append(system.fault_injector.schedule_digest())
        assert reports[0] == reports[1]
        assert digests[0] == digests[1]

    def test_different_seed_changes_the_schedule(self):
        digests = []
        for seed in (7, 8):
            plan = dataclasses.replace(FAULTY, seed=seed)
            system = EnvySystem(EnvyConfig.small(
                num_segments=8, pages_per_segment=16, fault_plan=plan,
                reserve_segments=6))
            run_workload(system, writes=5000, seed=3)
            digests.append(system.fault_injector.schedule_digest())
        assert digests[0] != digests[1]

    def test_tracer_records_fault_events(self):
        system = EnvySystem(faulty_config())
        with RunTrace.of(system).recording(system) as trace:
            run_workload(system, writes=5000, seed=1)
        assert trace.faults
        counts = trace.fault_counts()
        assert counts.get("transient_program_failure", 0) > 0
        assert "faults:" in trace.summary()

    def test_ecc_check_time_is_charged(self):
        base = faulty_config()
        slow = dataclasses.replace(base, ecc_check_ns=40)
        slow.validate()
        fast_ns = EnvySystem(base).read_timed(0, 1)[1]
        slow_ns = EnvySystem(slow).read_timed(0, 1)[1]
        assert slow_ns == fast_ns + 40


# ----------------------------------------------------------------------
# Strict endurance (satellite)
# ----------------------------------------------------------------------

class TestStrictEndurance:
    def worn_system(self, strict):
        config = EnvyConfig.small(num_segments=8, pages_per_segment=16,
                                  strict_endurance=strict)
        flash = dataclasses.replace(config.flash, endurance_cycles=3)
        return EnvySystem(dataclasses.replace(config, flash=flash))

    def test_default_records_overshoot(self):
        system = self.worn_system(strict=False)
        for _ in range(10):
            system.store.clean(0)
        assert system.array.fault_stats.endurance_overshoots > 0
        assert system.health_report()["endurance_overshoots"] > 0

    def test_strict_raises(self):
        system = self.worn_system(strict=True)
        with pytest.raises(EnduranceExceeded):
            for _ in range(10):
                system.store.clean(0)


# ----------------------------------------------------------------------
# Zero-plan parity: the fault layer must be invisible when unused
# ----------------------------------------------------------------------

class TestZeroPlanParity:
    def metrics_fingerprint(self, config):
        system = EnvySystem(config)
        run_workload(system, writes=3000, seed=4)
        m = system.metrics
        return (m.reads, m.writes, m.flushes, m.clean_copies, m.erases,
                m.read_latency.total_ns, m.write_latency.total_ns,
                dict(m.busy_ns))

    def test_zero_plan_matches_seed_behaviour(self):
        base = EnvyConfig.small(num_segments=8, pages_per_segment=16)
        gated = EnvyConfig.small(num_segments=8, pages_per_segment=16,
                                 fault_plan=FaultPlan.none())
        assert self.metrics_fingerprint(base) == \
            self.metrics_fingerprint(gated)

    def test_zero_plan_has_no_injector_or_ecc(self):
        system = EnvySystem(EnvyConfig.small(
            num_segments=8, pages_per_segment=16,
            fault_plan=FaultPlan.none()))
        assert system.fault_injector is None
        assert system.array.fault_injector is None
        assert system.health_report()["ecc_enabled"] is False

    def test_explicit_ecc_without_faults(self):
        system = EnvySystem(EnvyConfig.small(
            num_segments=8, pages_per_segment=16, ecc_enabled=True))
        shadow = run_workload(system, writes=1500, seed=5)
        page_bytes = system.config.page_bytes
        for page, data in shadow.items():
            assert system.read(page * page_bytes, page_bytes) == data
        assert system.health_report()["ecc_enabled"] is True
