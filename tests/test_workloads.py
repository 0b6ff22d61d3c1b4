"""Tests for the synthetic write workload generators."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import (BimodalWorkload, UniformWorkload, ZipfWorkload,
                             parse_locality)
from repro.workloads.base import WriteWorkload, randbelow

#: n = 1, powers of two and their neighbours: the rejection loop's edges.
EDGE_SIZES = sorted({1} | {2 ** k + d for k in range(1, 70)
                           for d in (-1, 0, 1)})


class TestRandbelow:
    """``randbelow`` must stay ``Random.randrange``'s own bit stream; if
    a future CPython changes ``randrange``, these fail and the helper
    goes back to delegating."""

    @given(seed=st.integers(0, 2 ** 32),
           n=st.one_of(st.sampled_from(EDGE_SIZES),
                       st.integers(1, 2 ** 70)))
    @example(seed=0, n=1)
    @settings(max_examples=200, deadline=None)
    def test_matches_randrange_stream(self, seed, n):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [randbelow(ours.getrandbits, n) for _ in range(20)] == \
            [theirs.randrange(n) for _ in range(20)]
        # Same number of bits consumed: the streams stay in step.
        assert ours.random() == theirs.random()

    @given(seed=st.integers(0, 2 ** 32), start=st.integers(-50, 10 ** 6),
           width=st.one_of(st.sampled_from(EDGE_SIZES[:40]),
                           st.integers(1, 10 ** 6)))
    @settings(max_examples=100, deadline=None)
    def test_matches_two_argument_randrange(self, seed, start, width):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [start + randbelow(ours.getrandbits, width)
                for _ in range(20)] == \
            [theirs.randrange(start, start + width) for _ in range(20)]

    @pytest.mark.parametrize("label", ["50/50", "10/90", "1/99"])
    def test_workload_streams_match_randrange(self, label):
        """The workloads draw exactly what their randrange-based
        predecessors drew."""
        workload = BimodalWorkload.from_label(409, label, seed=11)
        rng = random.Random(11)

        def predecessor():
            if label == "50/50":
                return rng.randrange(409)
            if rng.random() < workload.hot_access_fraction:
                return rng.randrange(workload.hot_pages)
            return rng.randrange(workload.hot_pages, 409)

        assert list(workload.next_pages(2000)) == \
            [predecessor() for _ in range(2000)]


def clamped_zipf(seed):
    """A table whose total overshoots its last entry (what float
    round-off could do): a third of the draws land past the last rank."""
    workload = ZipfWorkload(7, skew=1.0, seed=seed)
    workload._total *= 1.5
    return workload


#: 97 pages: not a power of two, so the uniform rejection loop rejects.
BULK_SHAPES = {
    "zipf_float_skew": lambda seed: ZipfWorkload(97, skew=0.99, seed=seed),
    "zipf_int_skew": lambda seed: ZipfWorkload(97, skew=1, seed=seed),
    "zipf_unscattered": lambda seed: ZipfWorkload(97, skew=1.2, seed=seed,
                                                  scatter=False),
    "zipf_clamped": clamped_zipf,
    "uniform": lambda seed: UniformWorkload(97, seed=seed),
    "base_default": lambda seed: BimodalWorkload.from_label(97, "10/90",
                                                            seed=seed),
}


class TestNextPages:
    """``next_pages(n)`` is ``n`` calls of ``next_page()``: same values,
    same RNG consumption, for any split and any interleaving."""

    @given(shape=st.sampled_from(sorted(BULK_SHAPES)),
           seed=st.integers(0, 2 ** 32),
           steps=st.lists(st.tuples(st.booleans(), st.integers(0, 40)),
                          max_size=8))
    @example(shape="zipf_clamped", seed=3, steps=[(True, 40), (False, 5),
                                                  (True, 0), (True, 17)])
    @settings(max_examples=150, deadline=None)
    def test_any_split_equals_single_draws(self, shape, seed, steps):
        bulk, twin = BULK_SHAPES[shape](seed), BULK_SHAPES[shape](seed)
        for in_bulk, count in steps:
            expected = [twin.next_page() for _ in range(count)]
            if in_bulk:
                assert bulk.next_pages(count) == expected
            else:
                assert [bulk.next_page() for _ in range(count)] == expected
        assert bulk.rng.random() == twin.rng.random()

    def test_shapes_exercise_what_they_name(self):
        assert BimodalWorkload.next_pages is WriteWorkload.next_pages
        for cls in (ZipfWorkload, UniformWorkload):
            assert cls.next_pages is not WriteWorkload.next_pages
        assert isinstance(BULK_SHAPES["zipf_int_skew"](0).skew, int)
        pages = clamped_zipf(3).next_pages(200)
        scattered_last = clamped_zipf(3)._page_of_rank[6]
        # Far more than the last rank's own 5% share: the clamp fired.
        assert pages.count(scattered_last) > 50
        assert all(0 <= page < 7 for page in pages)


class TestUniform:
    def test_pages_in_range(self):
        workload = UniformWorkload(100, seed=1)
        assert all(0 <= p < 100 for p in workload.next_pages(1000))

    def test_seeded_reproducibility(self):
        a = list(UniformWorkload(100, seed=5).next_pages(50))
        b = list(UniformWorkload(100, seed=5).next_pages(50))
        assert a == b

    def test_reset_restarts_stream(self):
        workload = UniformWorkload(100, seed=5)
        first = list(workload.next_pages(20))
        workload.reset()
        assert list(workload.next_pages(20)) == first

    def test_roughly_uniform(self):
        workload = UniformWorkload(10, seed=2)
        counts = [0] * 10
        for page in workload.next_pages(10_000):
            counts[page] += 1
        assert min(counts) > 700 and max(counts) < 1300

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UniformWorkload(0)


class TestParseLocality:
    def test_standard_labels(self):
        assert parse_locality("10/90") == (0.1, 0.9)
        assert parse_locality("5/95") == (0.05, 0.95)
        assert parse_locality("50/50") == (0.5, 0.5)

    def test_whitespace_tolerated(self):
        assert parse_locality(" 20/80 ") == (0.2, 0.8)

    def test_rejects_garbage(self):
        for bad in ("", "10", "10-90", "0/100", "a/b"):
            with pytest.raises(ValueError):
                parse_locality(bad)


class TestBimodal:
    def test_hot_share_of_accesses(self):
        # "10/90 means that 90% of all accesses go to 10% of the data".
        workload = BimodalWorkload(1000, 0.1, 0.9, seed=3)
        hot = sum(1 for p in workload.next_pages(20_000) if p < 100)
        assert hot / 20_000 == pytest.approx(0.9, abs=0.02)

    def test_hot_set_size(self):
        workload = BimodalWorkload(1000, 0.05, 0.95)
        assert workload.hot_pages == 50

    def test_cold_accesses_cover_cold_range(self):
        workload = BimodalWorkload(100, 0.1, 0.9, seed=4)
        cold = {p for p in workload.next_pages(5000) if p >= 10}
        assert min(cold) >= 10 and max(cold) <= 99

    def test_from_label_uniform_special_case(self):
        workload = BimodalWorkload.from_label(100, "50/50", seed=1)
        assert isinstance(workload, UniformWorkload)
        assert workload.label == "50/50"

    def test_from_label_bimodal(self):
        workload = BimodalWorkload.from_label(100, "20/80", seed=1)
        assert isinstance(workload, BimodalWorkload)
        assert workload.label == "20/80"
        assert workload.hot_pages == 20

    def test_label_formatting(self):
        assert BimodalWorkload(100, 0.05, 0.95).label == "5/95"

    def test_rejects_degenerate_fractions(self):
        with pytest.raises(ValueError):
            BimodalWorkload(100, 0.0, 0.9)
        with pytest.raises(ValueError):
            BimodalWorkload(100, 0.5, 1.0)
        with pytest.raises(ValueError):
            BimodalWorkload(1, 0.9, 0.5)  # hot set would cover everything
