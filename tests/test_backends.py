"""Tests for the pluggable storage-backend subsystem (repro.backends).

The contract under test: the controller talks to any registered
backend through the :class:`~repro.backends.base.StorageBackend`
boundary, nothing below that boundary influences placement (same trace
-> same logical page-state digest on every backend), and the default
``backend=None`` path is bit-identical to ``backend="flash"``.
"""

import io
import json
import time
from dataclasses import replace

import pytest

from repro.backends import (FileBackend, FileStoreError, OnfiBackend,
                            RamdiskBackend, RegistryError, RunTrace,
                            StorageBackend, backend_names,
                            create_backend, create_workload,
                            default_config, parse_spec, record_tpca,
                            record_workload, register_backend,
                            replay_trace, run_consistency,
                            state_digest, workload_names)
from repro.backends.onfi import STATUS_FAIL, STATUS_READY
from repro.cleaning import StoreError
from repro.core import EnvyConfig, EnvyController, recover_from_flash
from repro.core.costmodel import DRAM_READ_NS, DRAM_WRITE_NS
from repro.core.tracing import TraceError
from repro.faults.badblocks import BadBlockTable
from repro.flash.array import FlashArray
from repro.flash.errors import BadBlockError
from repro.service import TenantSpec


def small_config(**overrides):
    return default_config(**overrides)


class TestSpecParsing:
    def test_bare_name(self):
        assert parse_spec("flash") == ("flash", {})

    def test_options_coerced(self):
        name, options = parse_spec(
            "onfi:cycle_ns=30,factory_bad=2,fsync=true,skew=1.5,"
            "path=/tmp/x.img")
        assert name == "onfi"
        assert options == {"cycle_ns": 30, "factory_bad": 2,
                           "fsync": True, "skew": 1.5,
                           "path": "/tmp/x.img"}

    def test_empty_spec_rejected(self):
        with pytest.raises(RegistryError):
            parse_spec("  ")

    def test_malformed_option_rejected(self):
        with pytest.raises(RegistryError, match="key=value"):
            parse_spec("flash:oops")

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(RegistryError, match="flash"):
            create_backend("floppy", small_config())

    def test_unknown_option_names_accepted(self):
        with pytest.raises(RegistryError, match="rejected options"):
            create_backend("flash:bogus=1", small_config())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_backend("flash")(lambda *a, **k: None)



#: Spec strings that once hung the load generator, raised OverflowError,
#: silently disabled a rate limit or charged negative simulated time.
HOSTILE_SPECS = [
    (TenantSpec.parse, ValueError, f"name=a,{option}") for option in (
        "rate_tps=inf", "rate_tps=nan", "rate_limit_tps=nan", "burst=nan",
        "clients=inf", "slo=inf", "page_range=inf:5", "attack_pages=1e400",
        "arrive_s=nan", "burst_x=nan")] + [
    (lambda spec: create_backend(spec, small_config()), RegistryError, spec)
    for spec in ("onfi:cycle_ns=-5", "onfi:cycle_ns=-500",
                 "onfi:cycle_ns=nan", "onfi:addr_cycles=inf",
                 "onfi:factory_bad=-1", "ramdisk:block_bytes=0",
                 "file:path=")]


@pytest.mark.parametrize("parse, error, spec", HOSTILE_SPECS,
                         ids=[spec for _, _, spec in HOSTILE_SPECS])
def test_hostile_spec_is_refused_in_bounded_time(parse, error, spec):
    started = time.monotonic()
    with pytest.raises(error):
        parse(spec)
    assert time.monotonic() - started < 1.0


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"flash", "file", "onfi",
                "ramdisk"} <= set(backend_names())

    def test_builtin_workloads_registered(self):
        assert {"uniform", "sequential", "strided", "bimodal", "zipf",
                "trace"} <= set(workload_names())

    def test_every_backend_satisfies_the_interface(self):
        config = small_config()
        assert isinstance(create_backend("flash", config),
                          StorageBackend)
        assert isinstance(create_backend("ramdisk", config),
                          StorageBackend)
        assert isinstance(create_backend("onfi", config),
                          StorageBackend)

    def test_plain_flash_array_is_a_backend(self):
        # Virtual registration: the default array already satisfies
        # the contract without inheriting from the ABC.
        assert isinstance(FlashArray(small_config().flash, 256),
                          StorageBackend)

    def test_workload_spec_options(self):
        workload = create_workload("zipf:skew=1.3", 64, seed=5)
        assert workload.num_pages == 64
        pages = {workload.next_page() for _ in range(50)}
        assert pages <= set(range(64))

    @staticmethod
    def recorded_run(tmp_path):
        config = small_config()
        trace, _ = record_tpca(config, transactions=4, seed=1)
        path = str(tmp_path / "run.jsonl")
        trace.save(path)
        return config, trace, path

    def test_trace_workload_from_jsonl(self, tmp_path):
        """The file ``backends --check --record`` writes is the file
        ``trace:path=`` replays: the page writes of a TPC-A run."""
        config, trace, path = self.recorded_run(tmp_path)
        workload = create_workload(f"trace:path={path}",
                                   config.logical_pages)
        assert workload.next_pages(len(workload)) == trace.page_writes()
        assert len(workload) == trace.writes > 0

    def test_trace_workload_geometry_checked(self, tmp_path):
        _, trace, path = self.recorded_run(tmp_path)
        with pytest.raises(TraceError, match="has 16 logical pages"):
            create_workload(f"trace:path={path}", 16)


class TestRunTrace:
    def test_jsonl_roundtrip(self):
        config = small_config()
        trace, _ = record_tpca(config, transactions=4, seed=1)
        again = trace.roundtrip()
        assert again.ops == trace.ops
        assert again.page_bytes == trace.page_bytes
        assert again.seed == trace.seed
        assert again.config_digest == trace.config_digest

    def test_header_versioned(self):
        trace = RunTrace(256, seed=0, config_digest="abcd")
        buffer = io.StringIO()
        trace.record("w", 0, b"\x01" * 8)
        trace.save(buffer)
        header = json.loads(buffer.getvalue().splitlines()[0])
        assert header["format"] == "envy-run-trace"
        assert header["version"] == 2
        assert header["page_bytes"] == 256

    def test_wrong_version_rejected(self):
        bad = io.StringIO('{"format": "envy-run-trace", "version": 99, '
                          '"page_bytes": 256}\n')
        with pytest.raises(TraceError, match="version 99"):
            RunTrace.load(bad)

    def test_not_a_trace_rejected(self):
        with pytest.raises(TraceError, match="not an eNVy run trace"):
            RunTrace.load(io.StringIO('{"hello": 1}\n'))

    def test_geometry_mismatch_names_both_sides(self):
        trace = RunTrace(512)
        with pytest.raises(TraceError, match="512.*256"):
            trace.validate_for(small_config())

    def test_config_mismatch_rejected(self):
        config = small_config()
        trace, _ = record_tpca(config, transactions=2, seed=0)
        other = small_config(num_segments=14)
        with pytest.raises(TraceError, match="config mismatch"):
            trace.validate_for(other)

    def test_backend_field_excluded_from_digest(self):
        # A trace recorded on one substrate replays on any other.
        config = small_config()
        trace, _ = record_tpca(config, transactions=2, seed=0)
        trace.validate_for(replace(config, backend="ramdisk"))


class TestCrossBackendConsistency:
    def test_all_backends_one_digest(self, tmp_path):
        report = run_consistency(transactions=12, seed=0,
                                 tmpdir=str(tmp_path))
        assert report["consistent"], report
        assert report["distinct_digests"] == 1
        names = {entry["backend_name"]
                 for entry in report["backends"].values()}
        assert names == {"flash", "ramdisk", "file", "onfi"}
        for entry in report["backends"].values():
            assert entry["match"], entry

    def test_file_backend_survives_reopen(self, tmp_path):
        report = run_consistency(transactions=12, seed=0,
                                 tmpdir=str(tmp_path))
        file_entry = next(e for e in report["backends"].values()
                          if e["backend_name"] == "file")
        assert file_entry["reopen_digest"] == file_entry["digest"]

    def test_default_and_flash_spec_bit_identical(self):
        config = small_config()
        trace, _ = record_tpca(config, transactions=8, seed=2)
        direct = replay_trace(trace, replace(config, backend=None))
        named = replay_trace(trace, replace(config, backend="flash"))
        assert direct.digest == named.digest
        assert direct.total_ns == named.total_ns
        assert direct.health == named.health

    def test_registry_workload_trace_replays_identically(self):
        config = small_config()
        trace, reference = record_workload(config, "zipf:skew=1.1",
                                           writes=80, seed=4)
        for backend in ("flash", "ramdisk"):
            result = replay_trace(trace,
                                  replace(config, backend=backend))
            assert result.digest == reference.digest


class TestFileBackend:
    def test_path_required(self):
        with pytest.raises((ValueError, RegistryError)):
            create_backend("file", small_config())

    def test_state_survives_process_restart(self, tmp_path):
        config = replace(
            small_config(),
            backend=f"file:path={tmp_path / 'envy.img'}")
        ctrl = EnvyController(config)
        page_bytes = config.page_bytes
        expected = {}
        for stamp in range(40):
            page = (stamp * 5) % config.logical_pages
            data = bytes([stamp % 251]) * page_bytes
            ctrl.write(page * page_bytes, data)
            expected[page] = data
        ctrl.drain()
        digest = state_digest(ctrl)

        # Only the file survives; recovery rebuilds the controller.
        reopened = ctrl.array.reopen()
        recovered, report = recover_from_flash(reopened, config)
        assert report.pages_reconstructed > 0
        for page, data in expected.items():
            assert recovered.read(page * page_bytes, page_bytes) == data
        assert state_digest(recovered) == digest

    def test_erase_counts_and_bad_marks_persist(self, tmp_path):
        config = small_config()
        backend = FileBackend(config.flash, config.page_bytes,
                              path=str(tmp_path / "wear.img"))
        page, _ = backend.program_page(0, b"\xAB" * config.page_bytes)
        backend.invalidate_page(0, page)
        backend.erase_segment(0)
        backend.segments[1].mark_bad()
        with pytest.raises(BadBlockError):
            backend.erase_segment(1)  # the failed erase persists is_bad
        again = backend.reopen()
        assert again.segments[0].erase_count == 1
        assert again.segments[1].is_bad

    def test_geometry_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "geom.img")
        config = small_config()
        FileBackend(config.flash, config.page_bytes, path=path)
        other = small_config(num_segments=14)
        with pytest.raises(FileStoreError, match="geometry mismatch"):
            FileBackend(other.flash, other.page_bytes, path=path,
                        create=False)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.img"
        path.write_bytes(b"not an image at all" * 10)
        config = small_config()
        with pytest.raises(FileStoreError, match="bad magic"):
            FileBackend(config.flash, config.page_bytes,
                        path=str(path), create=False)

    def image_4x8(self, tmp_path):
        """A 4 x 8 image with one programmed page; returns (config, path,
        image bytes)."""
        config = EnvyConfig.small(num_segments=4, pages_per_segment=8)
        path = tmp_path / "tiny.img"
        backend = FileBackend(config.flash, config.page_bytes,
                              path=str(path))
        backend.program_page(0, b"\x5A" * config.page_bytes)
        backend.close()
        return config, path, path.read_bytes()

    def test_every_truncation_rejected(self, tmp_path):
        config, path, image = self.image_4x8(tmp_path)
        for length in range(len(image)):
            path.write_bytes(image[:length])
            with pytest.raises(FileStoreError):
                FileBackend(config.flash, config.page_bytes,
                            path=str(path), create=False)

    def test_unknown_slot_state_rejected(self, tmp_path):
        config, path, image = self.image_4x8(tmp_path)
        reopened = FileBackend(config.flash, config.page_bytes,
                               path=str(path), create=False)
        assert reopened.segments[0].write_pointer == 1
        state_byte = reopened._slot_offset(0, 0)
        reopened.close()
        for value in range(3, 256):
            raw = bytearray(image)
            raw[state_byte] = value
            path.write_bytes(bytes(raw))
            with pytest.raises(FileStoreError, match="unknown slot state"):
                FileBackend(config.flash, config.page_bytes,
                            path=str(path), create=False)

    def test_media_report_counts_writes(self, tmp_path):
        config = small_config()
        backend = FileBackend(config.flash, config.page_bytes,
                              path=str(tmp_path / "m.img"))
        before = backend.media_report()["media_writes"]
        backend.program_page(0, b"\x01" * config.page_bytes)
        report = backend.media_report()
        assert report["media_writes"] == before + 1
        assert report["media_bytes_written"] > 0


class TestOnfiBackend:
    def make(self, **kw):
        config = small_config()
        return OnfiBackend(config.flash, config.page_bytes, **kw)

    def test_program_issues_command_sequence(self):
        backend = self.make()
        backend.program_page(0, b"\x01" * backend.page_bytes)
        stats = backend.bus.stats()
        assert stats["command_cycles"] == 2
        assert stats["address_cycles"] == backend.addr_cycles
        assert stats["data_in_cycles"] > backend.page_bytes
        assert stats["status_cycles"] == 1
        assert backend.status_register == STATUS_READY

    def test_cycle_time_charged_through_cost_hooks(self):
        config = small_config()
        plain = FlashArray(config.flash, config.page_bytes)
        backend = self.make(cycle_ns=25)
        extra = backend._program_cycles() * 25
        assert backend.program_time_ns(0) == \
            plain.program_time_ns(0) + extra
        assert backend.read_time_ns(0) > plain.read_time_ns(0)
        assert backend.erase_time_ns(0) == plain.erase_time_ns(0) \
            + backend._erase_cycles() * 25

    def test_failed_erase_sets_fail_status(self):
        backend = self.make()
        backend.segments[3].is_bad = True
        with pytest.raises(BadBlockError):
            backend.erase_segment(3)
        assert backend.status_register == STATUS_FAIL

    def test_factory_marks_deterministic(self):
        a = self.make(factory_bad=2, bb_seed=7)
        b = self.make(factory_bad=2, bb_seed=7)
        assert a.factory_bad_segments == b.factory_bad_segments
        assert len(a.factory_bad_segments) == 2
        for phys in a.factory_bad_segments:
            assert a.segments[phys].is_bad

    def test_marking_every_segment_rejected(self):
        with pytest.raises(ValueError, match="every segment"):
            self.make(factory_bad=10_000)


class TestFactoryBadRetirement:
    def test_controller_retires_factory_bads_at_format(self):
        config = replace(small_config(),
                         backend="onfi:factory_bad=2,bb_seed=7")
        ctrl = EnvyController(config)
        marks = set(ctrl.array.factory_bad_segments)
        health = ctrl.health_report()
        assert marks <= set(health["retired_segments"])
        # The store never placed data on a factory-bad segment.
        page_bytes = config.page_bytes
        for stamp in range(60):
            page = (stamp * 3) % config.logical_pages
            ctrl.write(page * page_bytes,
                       stamp.to_bytes(8, "little"))
        ctrl.drain()
        active = {pos.phys for pos in ctrl.store.positions}
        active.add(ctrl.store.spare_phys)
        assert not (marks & active)

    def test_too_many_factory_bads_without_reserves(self):
        config = replace(small_config(reserve_segments=0),
                         backend="onfi:factory_bad=6,bb_seed=0")
        with pytest.raises(StoreError, match="reserve"):
            EnvyController(config)

    def test_bad_block_table_mark_factory(self):
        table = BadBlockTable()
        table.provision([10, 11])
        assert table.mark_factory(11) is None  # pool mark: just shrink
        assert 11 not in table.reserve
        replacement = table.mark_factory(3, need_replacement=True)
        assert replacement == 10
        assert table.retired[3] == "factory"
        assert table.retired[11] == "factory"
        with pytest.raises(ValueError, match="already retired"):
            table.mark_factory(3)


class TestRamdiskBackend:
    def test_image_mirrors_programs(self):
        config = small_config()
        backend = RamdiskBackend(config.flash, config.page_bytes)
        payload = bytes(range(256))[:config.page_bytes]
        page, _ = backend.program_page(2, payload)
        flat = 2 * backend.pages_per_segment + page
        assert backend.image_page(flat) == payload

    def test_erase_resets_image_to_ones(self):
        config = small_config()
        backend = RamdiskBackend(config.flash, config.page_bytes)
        page, _ = backend.program_page(0, b"\x00" * config.page_bytes)
        backend.invalidate_page(0, page)
        backend.erase_segment(0)
        assert backend.image_page(0) == b"\xff" * config.page_bytes

    def test_dram_cost_hooks(self):
        config = small_config()
        backend = RamdiskBackend(config.flash, config.page_bytes,
                                 block_bytes=config.page_bytes // 2)
        assert backend.read_time_ns(0) == DRAM_READ_NS * 2
        assert backend.program_time_ns(0) == DRAM_WRITE_NS * 2

    def test_block_size_must_divide_page(self):
        config = small_config()
        with pytest.raises(ValueError, match="divide"):
            RamdiskBackend(config.flash, config.page_bytes,
                           block_bytes=100)

    def test_device_counters_surface_in_health_report(self):
        config = replace(small_config(), backend="ramdisk")
        ctrl = EnvyController(config)
        page_bytes = config.page_bytes
        for stamp in range(30):
            ctrl.write((stamp % config.logical_pages) * page_bytes,
                       stamp.to_bytes(8, "little"))
        ctrl.drain()
        health = ctrl.health_report()
        assert health["backend"] == "ramdisk"
        assert health["backend_device_writes"] > 0
        assert health["blockdev0_writes"] > 0
        assert health["blockdev0_write_ns"] > 0


class TestDefaultPathUntouched:
    def test_default_health_report_has_no_backend_keys(self):
        ctrl = EnvyController(small_config())
        health = ctrl.health_report()
        assert "backend" not in health
        assert not any(key.startswith("backend_") for key in health)
        assert not any(key.startswith("blockdev") for key in health)

    def test_unknown_backend_spec_fails_at_construction(self):
        config = replace(small_config(), backend="floppy")
        with pytest.raises(RegistryError, match="unknown backend"):
            EnvyController(config)


class TestCliEntryPoints:
    def test_backends_lists_registries(self, capsys):
        from repro.__main__ import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("flash", "ramdisk", "file", "onfi", "zipf"):
            assert name in out

    def test_record_then_replay(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = str(tmp_path / "run.jsonl")
        assert main(["backends", "--record", trace_path,
                     "--transactions", "6"]) == 0
        digest = [line for line in capsys.readouterr().out.splitlines()
                  if "reference state digest" in line][0].split()[-1]
        assert main(["replay", trace_path, "--backend",
                     "onfi:factory_bad=1,bb_seed=7",
                     "--expect-digest", digest]) == 0

    def test_replay_wrong_geometry_refused(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = str(tmp_path / "run.jsonl")
        assert main(["backends", "--record", trace_path,
                     "--transactions", "4"]) == 0
        capsys.readouterr()
        assert main(["replay", trace_path, "--segments", "8"]) == 2
        assert "refusing to replay" in capsys.readouterr().err
