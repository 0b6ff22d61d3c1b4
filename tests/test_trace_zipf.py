"""Tests for trace record/replay and the Zipf workload."""

import bisect
import io
import random

import pytest

from repro.cleaning import GreedyPolicy, PolicySimulator
from repro.workloads import (TraceRecorder, TraceWorkload, UniformWorkload,
                             ZipfWorkload)
from repro.workloads import zipf as zipf_module
from repro.workloads.trace import TraceError


class TestTraceWorkload:
    def test_replays_exact_sequence(self):
        trace = TraceWorkload(10, [3, 1, 4, 1, 5])
        assert [trace.next_page() for _ in range(5)] == [3, 1, 4, 1, 5]

    def test_cycles_by_default(self):
        trace = TraceWorkload(10, [7, 8])
        assert [trace.next_page() for _ in range(5)] == [7, 8, 7, 8, 7]

    def test_non_cycling_exhausts(self):
        trace = TraceWorkload(10, [1], cycle=False)
        trace.next_page()
        with pytest.raises(StopIteration):
            trace.next_page()

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

    def test_file_round_trip(self):
        trace = TraceWorkload(100, [5, 50, 99, 0])
        loaded = trace.roundtrip()
        assert loaded.trace == trace.trace
        assert loaded.num_pages == 100

    def test_load_rejects_garbage(self):
        with pytest.raises(TraceError):
            TraceWorkload.load(io.BytesIO(b"not a trace at all!!"))

    def test_load_rejects_truncated(self):
        buffer = io.BytesIO()
        TraceWorkload(10, [1, 2, 3]).save(buffer)
        clipped = io.BytesIO(buffer.getvalue()[:-2])
        with pytest.raises(TraceError):
            TraceWorkload.load(clipped)


class TestTraceWorkloadJsonl:
    def test_jsonl_round_trip_preserves_refs_and_header(self):
        trace = TraceWorkload(100, [5, 50, 99, 0])
        loaded = trace.roundtrip_jsonl(page_bytes=256, seed=7,
                                       config_digest="abcd1234")
        assert loaded.trace == trace.trace
        assert loaded.num_pages == 100
        assert loaded.header["format"] == "envy-trace"
        assert loaded.header["version"] == 1
        assert loaded.header["page_bytes"] == 256
        assert loaded.header["seed"] == 7
        assert loaded.header["config_digest"] == "abcd1234"

    def test_jsonl_loader_rejects_wrong_num_pages(self):
        buffer = io.StringIO()
        TraceWorkload(64, [1, 2]).save_jsonl(buffer)
        buffer.seek(0)
        with pytest.raises(TraceError, match="64 logical pages.*128"):
            TraceWorkload.load_jsonl(buffer, expect_num_pages=128)

    def test_jsonl_loader_rejects_wrong_page_bytes(self):
        buffer = io.StringIO()
        TraceWorkload(64, [1, 2]).save_jsonl(buffer, page_bytes=512)
        buffer.seek(0)
        with pytest.raises(TraceError, match="512-byte pages.*256"):
            TraceWorkload.load_jsonl(buffer, expect_page_bytes=256)

    def test_jsonl_loader_rejects_wrong_config(self):
        buffer = io.StringIO()
        TraceWorkload(64, [1]).save_jsonl(buffer, config_digest="aaaa")
        buffer.seek(0)
        with pytest.raises(TraceError, match="config mismatch"):
            TraceWorkload.load_jsonl(buffer,
                                     expect_config_digest="bbbb")

    def test_jsonl_loader_tolerates_absent_header_fields(self):
        # A minimal trace (no page_bytes/config_digest) replays against
        # any system: there is nothing recorded to contradict.
        buffer = io.StringIO()
        TraceWorkload(64, [1, 2]).save_jsonl(buffer)
        buffer.seek(0)
        loaded = TraceWorkload.load_jsonl(buffer, expect_page_bytes=256,
                                          expect_config_digest="bbbb")
        assert loaded.trace == [1, 2]

    def test_jsonl_loader_rejects_wrong_version(self):
        buffer = io.StringIO('{"format": "envy-trace", "version": 9, '
                             '"num_pages": 4}\n{"p": 1}\n')
        with pytest.raises(TraceError, match="version 9"):
            TraceWorkload.load_jsonl(buffer)

    def test_jsonl_loader_rejects_garbage(self):
        with pytest.raises(TraceError, match="not an eNVy JSONL"):
            TraceWorkload.load_jsonl(io.StringIO('{"nope": 1}\n'))
        with pytest.raises(TraceError, match="malformed record"):
            TraceWorkload.load_jsonl(io.StringIO(
                '{"format": "envy-trace", "version": 1, '
                '"num_pages": 4}\nbroken line\n'))


class TestTraceRecorder:
    def test_records_what_it_yields(self):
        recorder = TraceRecorder(UniformWorkload(50, seed=3))
        pages = recorder.record(100)
        replay = recorder.as_workload()
        assert [replay.next_page() for _ in range(100)] == pages

    def test_replay_reproduces_simulation_exactly(self):
        """Two simulators fed the same trace agree on every counter."""
        recorder = TraceRecorder(UniformWorkload(8 * 16 * 4 // 5, seed=5))
        recorder.record(2000)
        results = []
        for _ in range(2):
            simulator = PolicySimulator(GreedyPolicy(), num_segments=8,
                                        pages_per_segment=16,
                                        buffer_pages=4)
            workload = recorder.as_workload()
            workload.num_pages = simulator.store.num_logical_pages
            result = simulator.run(
                TraceWorkload(simulator.store.num_logical_pages,
                              [p % simulator.store.num_logical_pages
                               for p in recorder.pages]),
                2000)
            results.append((result.flushes, result.clean_copies,
                            result.erases))
        assert results[0] == results[1]

    def test_save_delegates(self):
        recorder = TraceRecorder(UniformWorkload(10, seed=1))
        recorder.record(5)
        buffer = io.BytesIO()
        recorder.save(buffer)
        buffer.seek(0)
        assert TraceWorkload.load(buffer).trace == recorder.pages


class TestZipfWorkload:
    def test_pages_in_range(self):
        workload = ZipfWorkload(100, skew=1.2, seed=1)
        assert all(0 <= p < 100 for p in workload.pages(2000))

    def test_zero_skew_is_uniform(self):
        workload = ZipfWorkload(10, skew=0.0, seed=2)
        counts = [0] * 10
        for page in workload.pages(20_000):
            counts[page] += 1
        assert max(counts) < 1.3 * min(counts)

    def test_high_skew_concentrates_traffic(self):
        workload = ZipfWorkload(1000, skew=1.2, seed=3, scatter=False)
        hits = sum(1 for p in workload.pages(20_000) if p < 100)
        assert hits / 20_000 > 0.6

    def test_access_share_matches_sampling(self):
        workload = ZipfWorkload(500, skew=1.0, seed=4, scatter=False)
        predicted = workload.access_share(0.1)
        hits = sum(1 for p in workload.pages(30_000) if p < 50)
        assert hits / 30_000 == pytest.approx(predicted, abs=0.03)

    def test_scatter_breaks_adjacency_not_distribution(self):
        plain = ZipfWorkload(200, skew=1.0, seed=5, scatter=False)
        scattered = ZipfWorkload(200, skew=1.0, seed=5, scatter=True)
        assert plain.access_share(0.2) == scattered.access_share(0.2)
        # The hottest page is (almost surely) not page 0 when scattered.
        counts = {}
        for page in scattered.pages(5000):
            counts[page] = counts.get(page, 0) + 1
        hottest = max(counts, key=counts.get)
        plain_counts = {}
        for page in plain.pages(5000):
            plain_counts[page] = plain_counts.get(page, 0) + 1
        assert max(plain_counts, key=plain_counts.get) == 0
        assert hottest != 0 or True  # permutation could map rank0 -> 0

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

    def test_access_share_validation(self):
        workload = ZipfWorkload(10, skew=1.0)
        with pytest.raises(ValueError):
            workload.access_share(0.0)

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
        assert list(workload.pages(500)) == expected

    def test_scatter_off_skips_the_permutation(self):
        workload = ZipfWorkload(120, skew=1.0, seed=3, scatter=False)
        assert workload._page_of_rank is None
        twin = ZipfWorkload(120, skew=1.0, seed=3, scatter=True)
        assert [twin._page_of_rank[rank] for rank in workload.pages(200)] \
            == list(twin.pages(200))

    def test_reset_replays_the_stream(self):
        workload = ZipfWorkload(200, skew=0.8, seed=6)
        first = list(workload.pages(300))
        workload.reset()
        assert list(workload.pages(300)) == first

    def test_sharing_does_not_couple_streams(self):
        """Instances share tables, never RNG state."""
        alone = list(ZipfWorkload(200, skew=0.8, seed=6).pages(100))
        first = ZipfWorkload(200, skew=0.8, seed=6)
        second = ZipfWorkload(200, skew=0.8, seed=7)
        interleaved = []
        for _ in range(100):
            interleaved.append(first.next_page())
            second.next_page()
        assert interleaved == alone

    def test_access_share_unchanged(self):
        cumulative, _ = reference_tables(500, 1.0)
        workload = ZipfWorkload(500, skew=1.0)
        for fraction in (0.001, 0.1, 0.5, 1.0):
            top = max(1, int(500 * fraction))
            assert workload.access_share(fraction) == \
                cumulative[top - 1] / cumulative[-1]

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
