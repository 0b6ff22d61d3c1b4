"""Tests for the access-tracing proxy."""

import pytest

from repro.core import EnvyConfig, EnvySystem
from repro.core.tracing import TracingController
from repro.db import TpcaDatabase
from repro.core import TpcParams
from repro.workloads import TraceWorkload


@pytest.fixture
def traced():
    system = EnvySystem(EnvyConfig.small(num_segments=8,
                                         pages_per_segment=32))
    return TracingController(system)


class TestRecording:
    def test_records_reads_and_writes(self, traced):
        traced.write(0, b"abc")
        traced.read(0, 3)
        assert len(traced.trace) == 2
        assert traced.trace.records[0].op == "w"
        assert traced.trace.records[1].op == "r"
        assert traced.trace.records[0].address == 0

    def test_latency_recorded(self, traced):
        traced.read(0, 1)
        assert traced.trace.records[0].ns >= 160

    def test_passthrough_data(self, traced):
        traced.write(10, b"payload")
        assert traced.read(10, 7) == b"payload"

    def test_pause_resume(self, traced):
        traced.write(0, b"x")
        traced.pause()
        traced.write(1, b"y")
        traced.resume()
        traced.write(2, b"z")
        assert len(traced.trace) == 2
        # Paused accesses still took effect.
        assert traced.read(1, 1) == b"y"

    def test_reset(self, traced):
        traced.write(0, b"x")
        traced.reset()
        assert len(traced.trace) == 0

    def test_callback(self):
        seen = []
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=32))
        traced = TracingController(system,
                                   on_access=lambda *a: seen.append(a))
        traced.write(0, b"x")
        assert seen and seen[0][0] == "w"

    def test_attribute_passthrough(self, traced):
        assert traced.size_bytes > 0
        traced.write(0, b"x")
        traced.drain()
        assert len(traced.buffer) == 0


class TestDerivedViews:
    def test_pages_touched_spanning(self, traced):
        page = traced.config.page_bytes
        traced.write(page - 2, b"abcd")  # spans two pages
        assert traced.trace.pages_touched() == {0, 1}

    def test_page_writes_stream(self, traced):
        page = traced.config.page_bytes
        traced.write(0, b"a")
        traced.read(3 * page, 4)
        traced.write(2 * page, b"b")
        assert traced.trace.page_writes() == [0, 2]

    def test_summary(self, traced):
        traced.write(0, b"x")
        traced.read(0, 1)
        text = traced.trace.summary()
        assert "1 reads + 1 writes" in text


class TestTraceToSimulatorLoop:
    def test_real_app_trace_replays_in_policy_simulator(self):
        """Close the loop: run the real database, capture its write
        trace, replay it through the untimed policy simulator."""
        from repro.cleaning import GreedyPolicy, PolicySimulator

        system = EnvySystem(EnvyConfig.small(num_segments=16,
                                             pages_per_segment=256))
        traced = TracingController(system)
        database = TpcaDatabase(traced,
                                TpcParams().scaled_to_accounts(1000))
        database.load()
        traced.reset()  # trace only the transactions, not the load
        database.run(300, seed=14)
        page_writes = traced.trace.page_writes()
        assert len(page_writes) >= 300  # >= one record page per txn

        simulator = PolicySimulator(GreedyPolicy(), num_segments=16,
                                    pages_per_segment=64, buffer_pages=32)
        live = simulator.store.num_logical_pages
        workload = TraceWorkload(live,
                                 [page % live for page in page_writes])
        result = simulator.run(workload, len(page_writes))
        assert result.host_writes == len(page_writes)
        simulator.store.check_invariants()


class TestReplayDriversAreRecorded:
    """The timed simulator reads through the page-granular entry points
    (``read_page_ns`` / ``read_run_ns``); a wrapper that lets those fall
    through ``__getattr__`` records only the page-straddling words."""

    @staticmethod
    def run_wrapped(wrap):
        from repro.sim import build_tpca_system

        simulator = build_tpca_system(num_segments=16, pages_per_segment=64,
                                      rate_tps=20_000.0, seed=3)
        simulator.prewarm(2)
        inner = simulator.controller
        simulator.controller = wrap(inner)
        stats = simulator.run(0.01)
        return simulator.controller, inner, stats

    def test_tracing_controller_has_one_row_per_host_access(self):
        traced, inner, stats = self.run_wrapped(TracingController)
        reads, writes = traced.trace.reads(), traced.trace.writes()
        assert len(reads) == stats.read_latency.count > 1000
        assert len(writes) == stats.write_latency.count > 0
        # A straddling word is one row that cost two page reads.
        assert len(reads) < inner.metrics.reads
        assert sum(record.ns for record in reads) == \
            inner.metrics.busy_ns["read"]
        page_bytes = inner.config.page_bytes
        assert all(record.length == 8 for record in reads)
        assert any(record.address % page_bytes == 0 for record in reads)

    def test_run_recorder_has_one_row_per_host_access(self):
        from repro.backends.trace import RunRecorder

        recorder, _, stats = self.run_wrapped(RunRecorder)
        assert recorder.trace.reads == stats.read_latency.count > 1000
        assert recorder.trace.writes == stats.write_latency.count > 0

    def test_read_run_is_recorded_read_by_read(self, traced):
        page_bytes = traced.config.page_bytes
        first_ns, repeat_ns = traced.read_run_ns(3, 4)
        assert first_ns > repeat_ns            # head missed the MMU
        assert traced.read_page_ns(3) == repeat_ns
        assert [(r.op, r.address, r.length, r.ns)
                for r in traced.trace.records] == \
            [("r", 3 * page_bytes, 8, first_ns)] \
            + [("r", 3 * page_bytes, 8, repeat_ns)] * 4
        assert traced.metrics.reads == 5

    def test_run_recorder_records_a_run_read_by_read(self):
        from repro.backends.trace import RunRecorder

        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=32))
        recorder = RunRecorder(system)
        page_bytes = system.config.page_bytes
        recorder.read_run_ns(3, 4)
        recorder.read_page_ns(5)
        assert recorder.trace.ops == [("r", 3 * page_bytes, 8)] * 4 \
            + [("r", 5 * page_bytes, 8)]
        assert system.metrics.reads == 5
