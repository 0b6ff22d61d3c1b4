"""Tests for trace record/replay and the Zipf workload."""

import bisect
import io
import json
import os
import random
from collections import Counter

import pytest

from repro.backends import (RunTrace, create_workload, default_config,
                            record_workload, replay_trace)
from repro.cleaning import GreedyPolicy, PolicySimulator
from repro.core.tracing import TraceError
from repro.workloads import TraceWorkload, UniformWorkload, ZipfWorkload
from repro.workloads import zipf as zipf_module


def write_trace(pages, page_bytes=256, **header):
    """A run trace of one one-byte write per page of ``pages``."""
    trace = RunTrace(page_bytes, **header)
    for page in pages:
        trace.record("w", page * page_bytes, b"\x01")
    return trace


def saved(trace, tmp_path):
    path = str(tmp_path / "writes.jsonl")
    trace.save(path)
    return path


class TestTraceWorkload:
    def test_replays_exact_sequence(self):
        trace = TraceWorkload(10, [3, 1, 4, 1, 5])
        assert [trace.next_page() for _ in range(5)] == [3, 1, 4, 1, 5]

    def test_cycles_by_default(self):
        trace = TraceWorkload(10, [7, 8])
        assert [trace.next_page() for _ in range(5)] == [7, 8, 7, 8, 7]

    def test_non_cycling_exhausts(self):
        trace = TraceWorkload(10, [1, 2], cycle=False)
        assert trace.next_pages(2) == [1, 2]
        with pytest.raises(TraceError, match="all 2 references"):
            trace.next_page()
        trace.reset()
        with pytest.raises(TraceError, match="all 2 references"):
            trace.next_pages(3)

    def test_exhausted_trace_fails_the_run_instead_of_truncating_it(self):
        """``PolicySimulator.run`` draws through ``starmap``, which took
        the ``StopIteration`` this used to raise for the end of its own
        iteration: 500 writes asked, 50 done, no error."""
        simulator = PolicySimulator(GreedyPolicy(), num_segments=8,
                                    pages_per_segment=16, buffer_pages=4)
        live = simulator.store.num_logical_pages
        workload = TraceWorkload(live, range(50), cycle=False)
        with pytest.raises(TraceError, match="all 50 references"):
            simulator.run(workload, 500)
        assert simulator.host_writes == 50

    def test_reset(self):
        trace = TraceWorkload(10, [1, 2, 3])
        trace.next_page()
        trace.reset()
        assert trace.next_page() == 1

    def test_rejects_out_of_range_pages(self):
        with pytest.raises(ValueError):
            TraceWorkload(10, [10])
        with pytest.raises(ValueError):
            TraceWorkload(10, [])

    def test_file_round_trip(self, tmp_path):
        """The file a recorder writes is the file ``trace:path=`` replays."""
        path = saved(write_trace([5, 50, 99, 0]), tmp_path)
        loaded = create_workload(f"trace:path={path}", 100)
        assert loaded.trace == [5, 50, 99, 0]
        assert loaded.num_pages == 100 and loaded.cycle

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_bytes(b"not a trace at all!!")
        with pytest.raises(TraceError, match="malformed header"):
            create_workload(f"trace:path={path}", 100)

    def test_load_rejects_truncated(self, tmp_path):
        path = saved(write_trace([1, 2, 3]), tmp_path)
        with open(path, "rb+") as handle:
            handle.truncate(os.path.getsize(path) - 2)
        with pytest.raises(TraceError, match="malformed record"):
            create_workload(f"trace:path={path}", 100)


class TestTraceWorkloadJsonl:
    """``trace:path=`` and replay over the one on-disk format."""

    def test_jsonl_round_trip_preserves_refs_and_header(self):
        trace = write_trace([5, 50, 99, 0], seed=7, config_digest="abcd1234")
        trace.record("r", 512, 8, 160, 4)
        buffer = io.StringIO()
        trace.save(buffer)
        header = json.loads(buffer.getvalue().splitlines()[0])
        assert header == {"format": "envy-run-trace", "version": 2,
                          "page_bytes": 256, "seed": 7,
                          "config_digest": "abcd1234"}
        loaded = trace.roundtrip()
        assert loaded.ops == trace.ops
        assert loaded.page_writes() == [5, 50, 99, 0]
        assert (loaded.page_bytes, loaded.seed, loaded.config_digest) \
            == (256, 7, "abcd1234")

    def test_jsonl_loader_rejects_wrong_num_pages(self, tmp_path):
        path = saved(write_trace([1, 63]), tmp_path)
        assert create_workload(f"trace:path={path}", 64).trace == [1, 63]
        with pytest.raises(TraceError, match="up to page 63.*has 32 logical"):
            create_workload(f"trace:path={path}", 32)

    def test_jsonl_loader_rejects_wrong_page_bytes(self):
        # Page numbers carry no byte size, so it is a replay onto a
        # controller (which has one) that refuses.
        config = default_config()
        trace = write_trace([1, 2], page_bytes=2 * config.page_bytes)
        with pytest.raises(TraceError, match="512-byte pages.*256"):
            replay_trace(trace, config)

    def test_jsonl_loader_rejects_wrong_config(self):
        trace = write_trace([1], config_digest="aaaa")
        with pytest.raises(TraceError, match="config mismatch"):
            replay_trace(trace, default_config())

    def test_jsonl_loader_rejects_a_trace_past_the_array(self):
        config = default_config()
        trace = write_trace([config.logical_pages])
        with pytest.raises(TraceError,
                           match=f"ends at {config.logical_bytes}"):
            replay_trace(trace, config)

    def test_jsonl_loader_tolerates_absent_header_fields(self, tmp_path):
        # A minimal trace (no seed/config_digest) replays against any
        # system of its page size: there is nothing to contradict.
        trace = write_trace([1, 2]).roundtrip()
        assert trace.seed is None and trace.config_digest is None
        assert replay_trace(trace, default_config()).writes == 2
        path = saved(trace, tmp_path)
        assert create_workload(f"trace:path={path}", 64).trace == [1, 2]

    def test_jsonl_loader_rejects_wrong_version(self):
        buffer = io.StringIO('{"format": "envy-run-trace", "version": 9, '
                             '"page_bytes": 256}\n')
        with pytest.raises(TraceError, match="version 9"):
            RunTrace.load(buffer)

    def test_jsonl_loader_rejects_garbage(self, tmp_path):
        with pytest.raises(TraceError, match="not an eNVy run trace"):
            RunTrace.load(io.StringIO('{"nope": 1}\n'))
        # The page-only format this replaces is not silently accepted.
        old = tmp_path / "old.jsonl"
        old.write_text('{"format": "envy-trace", "version": 1, '
                       '"num_pages": 4}\n{"p": 1}\n')
        with pytest.raises(TraceError, match="not an eNVy run trace"):
            create_workload(f"trace:path={old}", 4)
        reads_only = write_trace([])
        reads_only.record("r", 0, 8)
        with pytest.raises(TraceError, match="records no writes"):
            create_workload(
                f"trace:path={saved(reads_only, tmp_path)}", 4)


class TestTraceRecorder:
    """Page sequences are recorded where everything else is: as the
    writes of a run trace (``record_workload``)."""

    def test_records_what_it_yields(self):
        config = default_config()
        trace, _ = record_workload(config, "uniform", writes=100, seed=3)
        pages = UniformWorkload(config.logical_pages, seed=3).next_pages(100)
        assert trace.page_writes() == pages
        replay = TraceWorkload(config.logical_pages, trace.page_writes())
        assert [replay.next_page() for _ in range(100)] == pages

    def test_replay_reproduces_simulation_exactly(self, tmp_path):
        """Two simulators fed the same trace agree on every counter."""
        trace, _ = record_workload(default_config(), "uniform",
                                   writes=2000, seed=5)
        live = 8 * 16 * 4 // 5
        path = saved(write_trace([page % live
                                  for page in trace.page_writes()]),
                     tmp_path)
        results = []
        for _ in range(2):
            simulator = PolicySimulator(GreedyPolicy(), num_segments=8,
                                        pages_per_segment=16,
                                        buffer_pages=4)
            assert simulator.store.num_logical_pages == live
            result = simulator.run(
                create_workload(f"trace:path={path}", live), 2000)
            results.append((result.flushes, result.clean_copies,
                            result.erases))
        assert results[0] == results[1] and results[0][2] > 0

    def test_save_delegates(self, tmp_path):
        """What ``--record`` saves, ``--workload trace:path=`` loads."""
        config = default_config()
        trace, _ = record_workload(config, "zipf:skew=1.1", writes=40,
                                   seed=1)
        workload = create_workload(
            f"trace:path={saved(trace, tmp_path)}", config.logical_pages)
        assert workload.trace == trace.page_writes() and len(workload) == 40


class TestZipfWorkload:
    def test_pages_in_range(self):
        workload = ZipfWorkload(100, skew=1.2, seed=1)
        assert all(0 <= p < 100 for p in workload.next_pages(2000))

    def test_zero_skew_is_uniform(self):
        workload = ZipfWorkload(10, skew=0.0, seed=2)
        counts = [0] * 10
        for page in workload.next_pages(20_000):
            counts[page] += 1
        assert max(counts) < 1.3 * min(counts)

    def test_high_skew_concentrates_traffic(self):
        workload = ZipfWorkload(1000, skew=1.2, seed=3, scatter=False)
        hits = sum(1 for p in workload.next_pages(20_000) if p < 100)
        assert hits / 20_000 > 0.6

    def test_scatter_breaks_adjacency_not_distribution(self):
        plain = ZipfWorkload(200, skew=1.0, seed=5, scatter=False)
        scattered = ZipfWorkload(200, skew=1.0, seed=5, scatter=True)
        plain_counts = Counter(plain.next_pages(5000))
        scattered_counts = Counter(scattered.next_pages(5000))
        # The same draws land on relabelled pages: the popularity
        # distribution is unchanged ...
        assert sorted(plain_counts.values()) == \
            sorted(scattered_counts.values())
        # ... but the hot pages are no longer the lowest-numbered ones.
        assert max(plain_counts, key=plain_counts.get) == 0
        hottest = {page for page, _ in plain_counts.most_common(10)}
        assert hottest <= set(range(20))
        scattered_hottest = {page for page, _
                             in scattered_counts.most_common(10)}
        assert not scattered_hottest <= set(range(20))

    def test_rejects_negative_skew(self):
        with pytest.raises(ValueError):
            ZipfWorkload(10, skew=-1)

    @pytest.mark.parametrize("skew", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_rejects_non_finite_skew(self, skew):
        # nan < 0 is False: it used to slip through and collapse every
        # draw onto one page.
        with pytest.raises(ValueError):
            ZipfWorkload(10, skew=skew)

    def test_label(self):
        assert ZipfWorkload(10, skew=0.8).label == "zipf(0.8)"


def reference_tables(num_pages, skew):
    """The per-instance build the shared tables replaced, kept as the
    reference the memoised tuples must equal element for element."""
    cumulative = []
    total = 0.0
    for rank in range(num_pages):
        total += 1.0 / (rank + 1) ** skew
        cumulative.append(total)
    permutation = list(range(num_pages))
    random.Random(0xC0FFEE).shuffle(permutation)
    return cumulative, permutation


class TestZipfSharedTables:
    def test_equal_shapes_share_one_table(self):
        first = ZipfWorkload(300, skew=0.9, seed=1)
        second = ZipfWorkload(300, skew=0.9, seed=2)
        assert first._cumulative is second._cumulative
        assert first._page_of_rank is second._page_of_rank
        # The permutation depends on the page count alone.
        other_skew = ZipfWorkload(300, skew=1.1, seed=1)
        assert other_skew._cumulative is not first._cumulative
        assert other_skew._page_of_rank is first._page_of_rank

    def test_tables_are_immutable(self):
        workload = ZipfWorkload(50, skew=1.0, seed=1)
        assert isinstance(workload._cumulative, tuple)
        assert isinstance(workload._page_of_rank, tuple)
        with pytest.raises(TypeError):
            workload._cumulative[0] = 0.0
        with pytest.raises(TypeError):
            workload._page_of_rank[0] = 0

    @pytest.mark.parametrize("skew", [0.0, 0.4, 1, 1.0, 1.2])
    def test_tables_and_draws_match_the_per_instance_build(self, skew):
        cumulative, permutation = reference_tables(257, skew)
        workload = ZipfWorkload(257, skew=skew, seed=9)
        assert list(workload._cumulative) == cumulative
        assert list(workload._page_of_rank) == permutation
        rng = random.Random(9)
        expected = []
        for _ in range(500):
            rank = min(256, bisect.bisect_left(
                cumulative, rng.random() * cumulative[-1]))
            expected.append(permutation[rank])
        assert list(workload.next_pages(500)) == expected

    def test_scatter_off_skips_the_permutation(self):
        workload = ZipfWorkload(120, skew=1.0, seed=3, scatter=False)
        assert workload._page_of_rank is None
        twin = ZipfWorkload(120, skew=1.0, seed=3, scatter=True)
        assert [twin._page_of_rank[rank]
                for rank in workload.next_pages(200)] \
            == list(twin.next_pages(200))

    def test_sharing_does_not_couple_streams(self):
        """Instances share tables, never RNG state."""
        alone = list(ZipfWorkload(200, skew=0.8, seed=6).next_pages(100))
        first = ZipfWorkload(200, skew=0.8, seed=6)
        second = ZipfWorkload(200, skew=0.8, seed=7)
        interleaved = []
        for _ in range(100):
            interleaved.append(first.next_page())
            second.next_page()
        assert interleaved == alone

    def test_memo_stays_bounded(self):
        bound = zipf_module._MEMO_SHAPES
        for pages in range(10, 10 + 4 * bound):
            ZipfWorkload(pages, skew=0.5 + pages / 100)
        weights = zipf_module._cumulative_weights.cache_info()
        scatter = zipf_module._scatter_permutation.cache_info()
        assert weights.maxsize == scatter.maxsize == bound
        assert weights.currsize <= bound and scatter.currsize <= bound
        # A shape that was evicted is rebuilt, identically.
        cumulative, permutation = reference_tables(10, 0.6)
        evicted = ZipfWorkload(10, skew=0.6)
        assert list(evicted._cumulative) == cumulative
        assert list(evicted._page_of_rank) == permutation
