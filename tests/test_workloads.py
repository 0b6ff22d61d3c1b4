"""Tests for the synthetic write workload generators."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import BimodalWorkload, UniformWorkload, parse_locality
from repro.workloads.base import randbelow

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

        assert list(workload.pages(2000)) == \
            [predecessor() for _ in range(2000)]


class TestUniform:
    def test_pages_in_range(self):
        workload = UniformWorkload(100, seed=1)
        assert all(0 <= p < 100 for p in workload.pages(1000))

    def test_seeded_reproducibility(self):
        a = list(UniformWorkload(100, seed=5).pages(50))
        b = list(UniformWorkload(100, seed=5).pages(50))
        assert a == b

    def test_reset_restarts_stream(self):
        workload = UniformWorkload(100, seed=5)
        first = list(workload.pages(20))
        workload.reset()
        assert list(workload.pages(20)) == first

    def test_roughly_uniform(self):
        workload = UniformWorkload(10, seed=2)
        counts = [0] * 10
        for page in workload.pages(10_000):
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
        hot = sum(1 for p in workload.pages(20_000) if p < 100)
        assert hot / 20_000 == pytest.approx(0.9, abs=0.02)

    def test_hot_set_size(self):
        workload = BimodalWorkload(1000, 0.05, 0.95)
        assert workload.hot_pages == 50
        assert workload.is_hot(49) and not workload.is_hot(50)

    def test_cold_accesses_cover_cold_range(self):
        workload = BimodalWorkload(100, 0.1, 0.9, seed=4)
        cold = {p for p in workload.pages(5000) if p >= 10}
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
