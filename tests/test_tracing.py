"""The one access listener (``EnvyController.access_listeners``) and the
one record (``repro.backends.RunTrace``): recording, derived views,
run-length rows, replay, and what the loader does with hostile files."""

import dataclasses
import io
import json
import os

import pytest

from repro.backends import (RunTrace, default_config, replay_trace,
                            state_digest)
from repro.core import (EnvyConfig, EnvyController, EnvySystem,
                        KillSwitch, SimulatedPowerFailure, TpcParams,
                        recover_from_flash)
from repro.core.tracing import TraceError
from repro.db import TpcaDatabase
from repro.faults import FaultPlan
from repro.workloads import TraceWorkload

from .fidelity import LEDGER

V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                          "run_trace_v1.jsonl")


def small_system(**overrides):
    return EnvySystem(EnvyConfig.small(num_segments=8, pages_per_segment=32,
                                       **overrides))


@pytest.fixture
def system():
    return small_system()


@pytest.fixture
def trace(system):
    """A trace recording ``system`` for the length of the test."""
    with RunTrace.of(system).recording(system) as trace:
        yield trace


class TestRecording:
    def test_records_reads_and_writes(self, system, trace):
        system.write(0, b"abc")
        system.read(0, 3)
        assert [row[:3] for row in trace.ops] == [("w", 0, b"abc"),
                                                  ("r", 0, 3)]
        assert (trace.writes, trace.reads, len(trace)) == (1, 1, 2)

    def test_latency_recorded(self, system, trace):
        _, ns = system.read_timed(0, 1)
        assert trace.ops == [("r", 0, 1, ns, 1)] and ns >= 160
        ns = system.write(0, b"x")
        assert trace.ops[1] == ("w", 0, b"x", ns, 1)
        assert trace.total_ns() == system.metrics.busy_ns["read"] + ns

    def test_passthrough_data(self, system, trace):
        system.write(10, b"payload")
        assert system.read(10, 7) == b"payload"

    def test_pause_resume(self, system):
        trace = RunTrace.of(system)
        with trace.recording(system):
            system.write(0, b"x")
        system.write(1, b"y")                  # paused: nobody subscribed
        assert system.access_listeners == []
        with trace.recording(system):
            system.write(2, b"z")
        assert [row[1] for row in trace.ops] == [0, 2]
        # Paused accesses still took effect.
        assert system.read(1, 1) == b"y"

    def test_reset(self, system):
        """A recording holds what happened while it was subscribed:
        start a fresh one to drop what came before."""
        system.write(0, b"x")
        with RunTrace.of(system).recording(system) as fresh:
            assert len(fresh) == 0
            system.write(1, b"y")
        assert [row[1] for row in fresh.ops] == [1]

    def test_callback(self, system):
        seen = []
        system.access_listeners.append(lambda *row: seen.append(row))
        ns = system.write(0, b"x")
        assert seen == [("w", 0, b"x", ns, 1)]

    def test_attribute_passthrough(self, system, trace):
        """Nothing wraps the controller, so there is nothing to forward:
        the object the application holds is the one being recorded."""
        system.write(0, b"x")
        system.drain()
        assert len(system.buffer) == 0 and len(trace) == 1
        assert system.access_listeners == [trace.record]

    @pytest.mark.parametrize("leaver", [0, 1])
    def test_two_recorders_detach_in_either_order(self, system, leaver):
        traces = [RunTrace.of(system), RunTrace.of(system)]
        recordings = [t.recording(system) for t in traces]
        for recording in recordings:
            recording.__enter__()
        system.write(0, b"a")
        system.read_run_ns(3, 4)
        recordings[leaver].__exit__(None, None, None)
        system.write(8, b"b")
        system.read(300, 8)
        gone, stays = traces[leaver], traces[1 - leaver]
        assert gone.ops == stays.ops[:len(gone)] and len(gone) == 3
        assert len(stays) == 5
        assert system.access_listeners == [stays.record]
        recordings[1 - leaver].__exit__(None, None, None)
        assert system.access_listeners == []
        assert system.array.fault_listeners == [system._on_fault_event]

    def test_out_of_range_read_is_not_recorded_and_not_deafening(
            self, system, trace):
        with pytest.raises(IndexError):
            system.read_timed(system.size_bytes - 4, 8)
        assert len(trace) == 0
        system.read_timed(0, 8)
        assert len(trace) == 1

    def test_a_listener_may_subscribe_another_from_inside_any_call(
            self, system):
        """The attribute is a list for the whole of every call."""
        heard = []

        def late(*row):
            heard.append(row)

        def subscribe_once(*row):
            if late not in system.access_listeners:
                system.access_listeners.append(late)

        system.access_listeners.append(subscribe_once)
        _, ns = system.read_timed(0, 600)      # spans three pages
        assert system.access_listeners == [subscribe_once, late]
        assert heard == [("r", 0, 600, ns, 1)]

    def test_recording_across_a_power_cut_and_recovery(self):
        """Only completed host calls are rows, and leaving the block
        after a recovery (which clears the array's fault listeners) does
        not raise over the outcome."""
        config = EnvyConfig.small(num_segments=8, pages_per_segment=32)
        ctrl = EnvyController(config)
        ctrl.store.preserve_flushed_copies = True
        page_bytes = config.page_bytes
        with RunTrace.of(ctrl).recording(ctrl) as trace, \
                KillSwitch(ctrl.array, kill_at=25):
            with pytest.raises(SimulatedPowerFailure):
                for stamp in range(10_000):
                    ctrl.write((stamp * 7) % config.logical_pages
                               * page_bytes, stamp.to_bytes(8, "little"))
            completed = len(trace)
            assert 0 < completed == stamp      # the cut write is no row
            survivor, _ = recover_from_flash(ctrl.array, config)
            assert trace.faults.append not in ctrl.array.fault_listeners
        assert len(trace) == completed
        assert ctrl.access_listeners == []
        survivor.check_consistency()


class TestDerivedViews:
    def test_pages_touched_spanning(self, system, trace):
        page = system.config.page_bytes
        system.write(page - 2, b"abcd")  # spans two pages
        assert trace.page_writes() == [0, 1]

    def test_page_writes_stream(self, system, trace):
        page = system.config.page_bytes
        system.write(0, b"a")
        system.read(3 * page, 4)
        system.write(2 * page - 1, b"bc")
        assert trace.page_writes() == [0, 1, 2]


class TestTraceToSimulatorLoop:
    def test_real_app_trace_replays_in_policy_simulator(self):
        """Close the loop: run the real database, capture its write
        trace, replay it through the untimed policy simulator."""
        from repro.cleaning import GreedyPolicy, PolicySimulator

        system = EnvySystem(EnvyConfig.small(num_segments=16,
                                             pages_per_segment=256))
        database = TpcaDatabase(system,
                                TpcParams().scaled_to_accounts(1000))
        database.load()
        # Trace only the transactions, not the load.
        with RunTrace.of(system).recording(system) as trace:
            database.run(300, seed=14)
        page_writes = trace.page_writes()
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
    """The timed simulator and the shard executor read through the
    timing-only ``read_run_ns``; the proxies this replaces let it fall
    through ``__getattr__`` and recorded only the page-straddling words
    (25 of 3 396 reads).  A listener on the priced path cannot miss."""

    def test_recorded_timed_run_accounts_for_every_host_access(self):
        from repro.sim import build_tpca_system

        simulator = build_tpca_system(num_segments=16, pages_per_segment=64,
                                      rate_tps=20_000.0, seed=3)
        simulator.prewarm(2)
        controller = simulator.controller
        with RunTrace.of(controller).recording(controller) as trace:
            stats = simulator.run(0.01)
        reads = [row for row in trace.ops if row[0] == "r"]
        assert sum(row[4] for row in reads) == trace.reads \
            == stats.read_latency.count > 1000
        assert sum(row[3] * row[4] for row in reads) \
            == controller.metrics.busy_ns["read"]
        assert trace.writes == stats.write_latency.count > 0
        # Runs are rows, not expanded read by read.
        assert len(reads) < stats.read_latency.count
        assert any(row[4] > 1 for row in reads)
        # A straddling word is one row that cost two page reads.
        assert trace.reads < controller.metrics.reads
        page_bytes = controller.config.page_bytes
        assert all(row[2] == 8 for row in reads)
        assert any(row[1] % page_bytes == 0 for row in reads)

    def test_run_recorder_has_one_row_per_host_access(self):
        """The shard executor issues runs of one (``read_run_ns(page)``)
        and word writes: a recorded replay has a row per served row."""
        import random

        from repro.service import ServiceConfig
        from repro.service.executor import ShardExecutor

        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=32),
                            store_data=False)
        rng = random.Random(1)
        requests, now, seqs = [], 0, [0, 0]
        for _ in range(400):
            now += rng.randrange(3000)
            tenant = rng.randrange(2)
            requests.append((now, tenant, seqs[tenant], rng.random() < 0.3,
                             rng.randrange(system.config.logical_pages)))
            seqs[tenant] += 1
        executor = ShardExecutor(system, 0, ["a", "b"], ServiceConfig())
        with RunTrace.of(system).recording(system) as trace:
            result = executor.run(requests)
        served = {op: sum(result["columns"][op]) for op in ("reads", "writes")}
        assert trace.reads == served["reads"] == system.metrics.reads > 200
        assert trace.writes == served["writes"] > 50
        assert len(trace) == served["reads"] + served["writes"] \
            < len(requests)                    # some were shed, unrecorded
        assert all(row[4] == 1 for row in trace.ops)

    def test_tracing_controller_has_one_row_per_host_access(self, system,
                                                            trace):
        """At the byte-addressed boundary (``write`` / ``read`` /
        ``read_timed``) every host call is exactly one row, however many
        pages it touched."""
        page_bytes = system.config.page_bytes
        ns = system.write(page_bytes - 2, b"abcd")
        data, read_ns = system.read_timed(page_bytes - 2, 4)
        system.read(5 * page_bytes, 3 * page_bytes)
        assert data == b"abcd"
        assert [row[:3] for row in trace.ops] == [
            ("w", page_bytes - 2, b"abcd"), ("r", page_bytes - 2, 4),
            ("r", 5 * page_bytes, 3 * page_bytes)]
        assert trace.ops[0][3] == ns and trace.ops[1][3] == read_ns
        assert system.metrics.reads == 5 and system.metrics.writes == 2
        assert trace.total_ns() == ns + system.metrics.busy_ns["read"]

    def test_read_run_is_recorded_as_a_run(self, system, trace):
        page_bytes = system.config.page_bytes
        first_ns, repeat_ns = system.read_run_ns(3, 4)
        assert first_ns > repeat_ns            # head missed the MMU
        assert system.read_run_ns(3) == (repeat_ns, repeat_ns)
        assert system.read_run_ns(3, 6) == (repeat_ns, repeat_ns)
        assert trace.ops == [("r", 3 * page_bytes, 8, first_ns, 1),
                             ("r", 3 * page_bytes, 8, repeat_ns, 3),
                             ("r", 3 * page_bytes, 8, repeat_ns, 1),
                             ("r", 3 * page_bytes, 8, repeat_ns, 6)]
        assert trace.reads == system.metrics.reads == 11
        assert trace.total_ns() == system.metrics.busy_ns["read"]

    def test_run_recorder_records_a_run_read_by_read(self, system, trace):
        """A subscriber on the bus and the record both hold a run as at
        most two entries (head; counted repeats) that stand for it read
        by read."""
        spans = []
        system.events.subscribe(spans.append, prefix="host.read")
        first_ns, repeat_ns = system.read_run_ns(3, 4)
        system.read_run_ns(5)
        page_bytes = system.config.page_bytes
        assert [(span.dur_ns, span.data.get("count", 1)) for span in spans] \
            == [(first_ns, 1), (3 * repeat_ns, 3), (first_ns, 1)]
        assert trace.ops == [("r", 3 * page_bytes, 8, first_ns, 1),
                             ("r", 3 * page_bytes, 8, repeat_ns, 3),
                             ("r", 5 * page_bytes, 8, first_ns, 1)]
        assert trace.reads == system.metrics.reads == 5


class TestReplay:
    def test_replay_under_a_second_recorder_yields_identical_rows(self):
        import random

        rng = random.Random(21)
        system = small_system()
        page_bytes = system.config.page_bytes
        pages = system.config.logical_pages
        with RunTrace.of(system, seed=21).recording(system) as trace:
            for _ in range(1500):
                page = rng.randrange(12) if rng.random() < 0.6 \
                    else rng.randrange(pages)
                shape = rng.random()
                if shape < 0.4:
                    system.write(page * page_bytes + rng.randrange(240),
                                 rng.randbytes(rng.randrange(1, 40)))
                elif shape < 0.6:
                    system.read_timed(page * page_bytes + 250, 8)
                else:
                    system.read_run_ns(page, rng.randrange(1, 9))
        assert system.metrics.flushes > 100        # writes stalled
        assert len({row[3] for row in trace.ops}) > 4
        assert len(trace) < trace.reads + trace.writes
        # From the file, onto a fresh system of the same config.
        replayed = EnvySystem(system.config)
        with RunTrace.of(replayed).recording(replayed) as again:
            total_ns = trace.roundtrip().drive(replayed)
        assert again.ops == trace.ops
        assert total_ns == trace.total_ns()
        result = replay_trace(trace, system.config)
        assert result.total_ns == total_ns
        system.drain()
        assert result.digest == state_digest(system)

    def test_v1_fixture_loads_and_replays_to_the_parents_results(self):
        """``tests/data/run_trace_v1.jsonl`` was written by the commit
        before ``c`` / ``ns`` existed (``record_tpca(default_config(),
        transactions=3, seed=11)``), which replayed it to the digest and
        total of ``trace_v1/default_config`` in the fidelity ledger."""
        trace = RunTrace.load(V1_FIXTURE)
        assert len(trace) == 181 and trace.seed == 11
        assert all(row[3] is None and row[4] == 1 for row in trace.ops)
        assert trace.total_ns() == 0
        result = replay_trace(trace, default_config())
        LEDGER.check("trace_v1/default_config",
                     {"digest": result.digest, "total_ns": result.total_ns})
        # Saved again it is a version 2 file with the same rows.
        assert trace.roundtrip().ops == trace.ops


# ----------------------------------------------------------------------
# Hostile input: the file is outside input, nothing in it is trusted
# ----------------------------------------------------------------------

def corpus():
    """A small valid trace with every row shape, and its config."""
    system = small_system()
    page_bytes = system.config.page_bytes
    with RunTrace.of(system, seed=9).recording(system) as trace:
        system.write(page_bytes - 2, b"\x01\x02\x03\x04")
        system.read_timed(page_bytes - 2, 4)
        system.read_run_ns(7, 5)               # head + repeats: two rows
        system.write(7 * page_bytes, bytes(range(16)))
        system.read_run_ns(7, 2)
    assert [row[4] for row in trace.ops] == [1, 1, 1, 4, 1, 2]
    buffer = io.StringIO()
    trace.save(buffer)
    return trace, buffer.getvalue(), system.config


def outcome(text, config):
    """``("refused", None)``, or ``("loaded", trace)`` once the load *and*
    a replay went through; any other exception propagates and fails."""
    try:
        trace = RunTrace.load(io.StringIO(text))
        replay_trace(trace, config)
    except TraceError:
        return "refused", None
    return "loaded", trace


def mutated(text, line, **fields):
    """``text`` with the JSON object on ``line`` updated by ``fields``."""
    lines = text.splitlines()
    record = json.loads(lines[line])
    record.update(fields)
    lines[line] = json.dumps(record)
    return "\n".join(lines) + "\n"


class TestHostileTraceFiles:
    def test_truncation_at_every_byte(self):
        trace, text, config = corpus()
        digests = {}
        loaded = 0
        for cut in range(len(text)):
            verdict, prefix = outcome(text[:cut], config)
            if verdict == "refused":
                continue
            # What loads is a whole-row prefix of what was saved, and it
            # replays to what that prefix replays to.
            loaded += 1
            rows = len(prefix)
            assert prefix.ops == trace.ops[:rows]
            if rows not in digests:
                whole = RunTrace(trace.page_bytes, ops=trace.ops[:rows])
                digests[rows] = replay_trace(whole, config).digest
            assert replay_trace(prefix, config).digest == digests[rows]
        # Only a cut at a line end (or in its trailing newline) loads.
        assert loaded == 2 * len(trace) + 1 < len(text) // 10

    def test_every_single_bit_flip(self):
        trace, text, config = corpus()
        reference = replay_trace(trace, config).digest
        raw = text.encode()
        unchanged = changed = 0
        for position in range(len(raw)):
            for bit in range(8):
                flipped = bytearray(raw)
                flipped[position] ^= 1 << bit
                # Decoded as the path loader decodes a file on disk.
                verdict, loaded = outcome(
                    flipped.decode("utf-8", errors="replace"), config)
                if verdict == "refused":
                    continue
                digest = replay_trace(loaded, config).digest
                if loaded.ops == trace.ops:
                    # A header key nobody reads, or a hex digit's case.
                    unchanged += 1
                    assert digest == reference
                else:
                    # Another valid trace: it replays to what a trace
                    # built from its rows replays to.
                    changed += 1
                    rebuilt = RunTrace(loaded.page_bytes,
                                       ops=list(loaded.ops))
                    assert digest == replay_trace(rebuilt, config).digest
        assert 0 < unchanged < changed < len(raw)

    BAD_VALUES = ["x", 1.5, True, None, [], {}, -1]

    @pytest.mark.parametrize("key", ["a", "n", "c", "ns", "d"])
    def test_type_confusion(self, key):
        trace, text, config = corpus()
        reference = replay_trace(trace, config).digest
        lines = [number for number, line in enumerate(text.splitlines())
                 if number and key in json.loads(line)]
        assert lines
        for line in lines:
            for value in self.BAD_VALUES:
                verdict, loaded = outcome(
                    mutated(text, line, **{key: value}), config)
                if verdict == "loaded":
                    # Only a null ``ns`` is benign: the row is untimed.
                    assert (key, value) == ("ns", None)
                    assert replay_trace(loaded, config).digest == reference

    @pytest.mark.parametrize("line, fields", [
        (4, {"c": 0}), (4, {"c": -3}),                 # a run of no reads
        (1, {"d": "abc"}), (1, {"d": "zz"}),           # odd / non-hex
        (2, {"n": 10 ** 15}),                          # past the array
        (1, {"a": 10 ** 15}),
        (4, {"a": 256 - 4}),                           # a run over two pages
        (4, {"n": 0}),                                 # a run of nothing
        (2, {"op": "x"}), (2, {"op": None}),
        (0, {"version": 3}), (0, {"version": "2"}), (0, {"version": None}),
        (0, {"page_bytes": 0}), (0, {"page_bytes": True}),
        (0, {"page_bytes": 512}),                      # another geometry
        (0, {"format": "envy-trace"}),
        (0, {"config_digest": "0" * 16}),
    ])
    def test_refused(self, line, fields):
        _, text, config = corpus()
        assert outcome(mutated(text, line, **fields), config) \
            == ("refused", None)

    @pytest.mark.parametrize("garbage", [
        "", "\n", "[]\n", "null\n", "{}\n", '{"format": 1}\n',
        "\ufeff{}\n", "{" * 64 + "\n", "[" * 100_000 + "\n"])
    def test_not_a_trace(self, garbage):
        assert outcome(garbage, default_config()) == ("refused", None)

    def test_rows_that_are_not_objects(self):
        _, text, config = corpus()
        for row in ("[]", "7", '"w"', "null", "{}", "not json",
                    '{"op": "w", "a": 0, "d": ' + "[" * 100_000):
            assert outcome(text + row + "\n", config) == ("refused", None)

    def test_undecodable_bytes_on_disk(self, tmp_path):
        _, text, _ = corpus()
        path = tmp_path / "bad.jsonl"
        raw = text.encode()
        path.write_bytes(raw[:80] + b"\xff\xfe" + raw[80:])
        with pytest.raises(TraceError, match="malformed"):
            RunTrace.load(str(path))

    def test_unknown_keys_and_blank_lines_are_tolerated(self):
        trace, text, config = corpus()
        verdict, loaded = outcome(
            mutated(text, 3, comment="hi").replace("\n", "\n\n"), config)
        assert verdict == "loaded" and loaded.ops == trace.ops


# ----------------------------------------------------------------------
# Timing-only reads skip the ECC path — and only the ECC path
# ----------------------------------------------------------------------

class TestTimingOnlyReadsPriceLikeSensingReads:
    def test_twins_differ_only_in_ecc_counters(self):
        plan = FaultPlan(seed=3, read_flip_rate=2e-4)
        twins = [small_system(fault_plan=plan) for _ in range(2)]
        page_bytes = twins[0].config.page_bytes
        pages = range(0, twins[0].config.logical_pages, 3)
        for twin in twins:
            for page in pages:
                twin.write(page * page_bytes, bytes([page % 251]) * page_bytes)
            twin.drain()
            twin.mmu.flush()
        timing_only, sensing = twins
        assert state_digest(timing_only) == state_digest(sensing)
        for _ in range(3):
            for page in pages:
                first_ns, _ = timing_only.read_run_ns(page)
                data, ns = sensing.read_timed(page * page_bytes, 8)
                assert first_ns == ns
                assert data == bytes([page % 251]) * 8     # ECC corrected

        def without_ecc(system):
            state = system.metrics.state_dict()
            ecc = {name: state["counters"].pop(name)
                   for name in ("ecc_corrected", "ecc_uncorrectable")}
            return state, ecc

        quiet_state, quiet_ecc = without_ecc(timing_only)
        sensed_state, sensed_ecc = without_ecc(sensing)
        assert quiet_state == sensed_state
        assert quiet_ecc["ecc_corrected"] == 0 < sensed_ecc["ecc_corrected"]
        quiet, sensed = (dataclasses.asdict(s.array.fault_stats)
                         for s in twins)
        differing = {name for name in quiet if quiet[name] != sensed[name]}
        assert differing == {"read_bit_flips", "ecc_corrected_reads",
                             "ecc_corrected_bits"}
        assert (timing_only.mmu.hits, timing_only.mmu.misses) \
            == (sensing.mmu.hits, sensing.mmu.misses)

    #: Every plan the repo ships, and the flip-heavy one from above.
    PLANS = {"none": FaultPlan.none(), "light": FaultPlan.light(3),
             "harsh": FaultPlan.harsh(3),
             "flips": FaultPlan(seed=3, read_flip_rate=2e-4)}

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_a_counted_run_prices_like_that_many_sensing_reads(self, name):
        """ROADMAP 3(c), stated rather than priced: ``read_run_ns(page,
        n)`` is ``n`` word ``read_timed`` calls in nanoseconds and in
        every metric except the ECC counters."""
        twins = [small_system(fault_plan=self.PLANS[name],
                              reserve_segments=2) for _ in range(2)]
        page_bytes = twins[0].config.page_bytes
        pages = range(0, twins[0].config.logical_pages, 3)
        for twin in twins:
            for page in pages:
                twin.write(page * page_bytes, bytes([page % 251]) * page_bytes)
            twin.drain()
            twin.mmu.capacity = 4
            twin.mmu.flush()
        timing_only, sensing = twins
        for count in (1, 2, 5):
            for page in pages:
                first_ns, repeat_ns = timing_only.read_run_ns(page, count)
                sensed = [sensing.read_timed(page * page_bytes, 8)
                          for _ in range(count)]
                assert first_ns + repeat_ns * (count - 1) \
                    == sum(ns for _, ns in sensed)
                assert first_ns > repeat_ns or count == 1
                assert all(data == bytes([page % 251]) * 8
                           for data, _ in sensed)
        states = [twin.metrics.state_dict() for twin in twins]
        ecc = [{counter: state["counters"].pop(counter)
                for counter in ("ecc_corrected", "ecc_uncorrectable")}
               for state in states]
        assert states[0] == states[1]
        assert ecc[0] == {"ecc_corrected": 0, "ecc_uncorrectable": 0}
        assert ecc[1]["ecc_uncorrectable"] == 0
        assert (ecc[1]["ecc_corrected"] > 0) is (name == "flips")
        assert (timing_only.mmu.hits, timing_only.mmu.misses) \
            == (sensing.mmu.hits, sensing.mmu.misses)
