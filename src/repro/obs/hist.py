"""Log-bucketed latency histograms (the tails Section 5 cannot see).

The paper reports *average* latencies (Figure 15) and the metrics module
mirrored that with a bare min/max/mean stat.  But the phenomena the
reproduction now models — cleaning stalls at high utilization, write
buffer saturation, fault-retry storms — are tail phenomena: a mean of
200 ns hides the 1-in-100 write that waited 7 us behind a flush chain.

:class:`LatencyHistogram` is an HdrHistogram-style log-bucketed counter:

* values below ``2 * SUBBUCKETS`` are recorded exactly (one bucket per
  nanosecond), so the common fast-path latencies (160-200 ns region
  scaled down, or small counters) lose nothing;
* above that, each power-of-two octave is split into ``SUBBUCKETS``
  linear sub-buckets, bounding the relative quantization error at
  ``1 / SUBBUCKETS`` (6.25%) regardless of magnitude;
* buckets are kept sparsely (dict), so an idle histogram costs nothing
  and a busy one costs proportional to the distinct latency scales seen.

Count, total and min/max are tracked exactly; only the percentile
estimates are bucket-quantized.  ``merge`` is exact bucket addition, so
merging shard histograms equals recording every sample into one — a
property the test suite checks, and the reason per-worker histograms can
be combined after a parallel run.

A sample is a tally entry until someone reads it.  The simulator prices
a host access from a few fixed parts (bus overhead, one 160 ns SRAM or
Flash cycle, a page-table read on an MMU miss), so its samples repeat
heavily: a timed TPC-A run records 1.4 M of them over 44 distinct
values.  ``record``, ``record_n`` and short ``record_many`` lists
therefore only count the exact value, and every reader first calls
``_fold``, which buckets each distinct value once.  The tally folds on
its own once it holds as many values as there are buckets, so it never
outgrows them, and all tallies key a common value by one shared int
(``_shared``), so many histograms cost little more than their bucket
dicts would.  Long ``record_many`` lists (at least ``BULK_MIN``
samples) are mostly distinct values and skip the tally: ``_bucket``,
the one place samples are bucketed, takes the list itself in C-level
folds, faster than a dict of its values is built.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import mul
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

__all__ = ["LatencyHistogram", "SUBBUCKETS", "RELATIVE_ERROR", "BULK_MIN"]

#: Sub-buckets per power-of-two octave (must be a power of two).
SUBBUCKET_BITS = 4
SUBBUCKETS = 1 << SUBBUCKET_BITS
#: Worst-case relative bucket width for values >= ``2 * SUBBUCKETS``.
RELATIVE_ERROR = 1 / SUBBUCKETS
#: Samples from which ``record_many`` buckets the list in bulk instead
#: of tallying it sample by sample.  Per sample, the read included, at
#: 64: bulk 192 vs tally 136 ns over 4 distinct values, 214 vs 205 over
#: 64, 282 vs 419 when every value is new; below 16 the bulk path's
#: fixed cost loses everywhere (CPython 3.11, one core).
BULK_MIN = 64


def bucket_index(value: int) -> int:
    """Bucket holding ``value`` (monotone non-decreasing in value)."""
    if value < 2 * SUBBUCKETS:
        return value
    shift = value.bit_length() - (SUBBUCKET_BITS + 1)
    return ((shift + 1) << SUBBUCKET_BITS) + ((value >> shift) - SUBBUCKETS)


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive ``(low, high)`` value range of bucket ``index``."""
    if index < 2 * SUBBUCKETS:
        return index, index
    shift = (index >> SUBBUCKET_BITS) - 1
    mantissa = SUBBUCKETS + (index & (SUBBUCKETS - 1))
    return mantissa << shift, ((mantissa + 1) << shift) - 1


#: Distinct values the tally holds before it folds: the number of
#: buckets a 64-bit latency can land in.
_TALLY_MAX = bucket_index(2**63 - 1) + 1

#: The int object tallies key a value by, for the first ``_TALLY_MAX``
#: distinct values recorded in the process.  A latency is a fresh int
#: each time it is computed, and a tally keeps the first one it sees:
#: a service run's thousands of per-tenant histograms would otherwise
#: hold their own copy of every common latency until they are read.
_SHARED_VALUES: Dict[int, int] = {}


def _shared(ns: int) -> int:
    value = _SHARED_VALUES.get(ns)
    if value is None:
        if len(_SHARED_VALUES) >= _TALLY_MAX:
            return ns
        value = _SHARED_VALUES[ns] = ns
    return value


class LatencyHistogram:
    """Streaming histogram of non-negative integer samples (nanoseconds).

    API superset of the old ``LatencyStat``: ``record``, ``merge``,
    ``count``, ``total_ns``, ``min_ns``, ``max_ns``, ``mean_ns`` behave
    identically; percentiles, bucket iteration and snapshot/restore are
    new.
    """

    __slots__ = ("_count", "_total_ns", "_min_ns", "_max_ns", "_buckets",
                 "_tally")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        # The folded part: exact summaries of every bucketed sample ...
        self._count = 0
        self._total_ns = 0
        self._min_ns = 0
        self._max_ns = 0
        #: Sparse bucket counts (bucket index -> samples).
        self._buckets: Optional[Dict[int, int]] = None
        # ... and the samples not bucketed yet: exact value -> samples.
        # Both dicts are created on first use: a service run holds
        # thousands of per-tenant histograms, many never recorded into
        # or read, and an aggregate is only ever merged into.
        self._tally: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, ns: int) -> None:
        # Called twice per simulated access (controller metric + driver
        # stat), over a few dozen distinct values: count the value and
        # leave bucketing, the clamp and the summaries to ``_fold``.
        # Every in-repo caller passes an int; coerce only what is not
        # one (floats, bools, numpy integers — NaN raises here).
        if ns.__class__ is not int:
            ns = int(ns)
        tally = self._tally
        try:
            seen = tally.get(ns)
        except AttributeError:          # nothing tallied since the fold
            self._tally = {_shared(ns): 1}
            return
        if seen is not None:
            tally[ns] = seen + 1
        elif len(tally) < _TALLY_MAX:
            tally[_shared(ns)] = 1
        else:
            self._fold()
            self._tally = {_shared(ns): 1}

    def record_n(self, ns: int, n: int) -> None:
        """Exactly ``n`` calls of ``record(ns)``; ``n == 0`` is a no-op.

        A run of back-to-back reads of one page costs the same every
        time (an MMU hit on the entry the head installed), so the read
        path prices the run once and accounts the repeats here.
        ``record`` keeps its own copy of the tally update: delegating
        would put a second call on every single-sample record.  ``n``
        is an ``int``: anything else raises ``TypeError``.
        """
        if n.__class__ is not int:
            raise TypeError(f"cannot record {n!r} samples")
        if n <= 0:
            if n < 0:
                raise ValueError(f"cannot record {n} samples")
            return
        if ns.__class__ is not int:
            ns = int(ns)
        tally = self._tally
        try:
            seen = tally.get(ns)
        except AttributeError:
            self._tally = {_shared(ns): n}
            return
        if seen is not None:
            tally[ns] = seen + n
        elif len(tally) < _TALLY_MAX:
            tally[_shared(ns)] = n
        else:
            self._fold()
            self._tally = {_shared(ns): n}

    def record_many(self, values: Sequence[int]) -> None:
        """Exactly ``record(ns)`` for each of ``values``.

        A short sequence is tallied in one loop (``record`` inlined: a
        service run folds tens of thousands of them).  One of
        ``BULK_MIN`` samples or more (a consumer that reads its
        histogram only at the end of a stretch collects the stretch and
        accounts it here) is mostly distinct values, and ``_bucket``
        takes it whole, in C-level folds that cost ~2.5 us before the
        first sample."""
        if len(values) < BULK_MIN:
            tally = self._tally or {}
            try:
                for ns in values:
                    if ns.__class__ is not int:
                        ns = int(ns)
                    seen = tally.get(ns)
                    if seen is not None:
                        tally[ns] = seen + 1
                    elif len(tally) < _TALLY_MAX:
                        tally[_shared(ns)] = 1
                    else:
                        self._tally = tally
                        self._fold()
                        tally = {_shared(ns): 1}
            finally:   # a NaN raises with the samples before it tallied
                self._tally = tally or None
            return
        self._fold()
        self._bucket([ns if ns.__class__ is int else int(ns)
                      for ns in values])

    def _fold(self) -> Dict[int, int]:
        """Bucket the tallied samples; every reader calls this first.
        Returns the bucket dict."""
        if self._buckets is None:
            self._buckets = {}
        tally = self._tally
        if tally is not None:
            self._tally = None
            self._bucket(list(tally), list(tally.values()))
        return self._buckets

    def _bucket(self, values: List[int],
                counts: Optional[List[int]] = None) -> None:
        """Account ``values`` (seen ``counts`` times each, else once),
        negatives clamped to 0, as C-level folds over the list: the one
        place samples are bucketed."""
        low, high = min(values), max(values)
        if low < 0:
            values = [ns if ns > 0 else 0 for ns in values]
            low, high = 0, max(high, 0)
        # bucket_index(ns) with its two terms of SUBBUCKETS cancelled.
        exact, bits = 2 * SUBBUCKETS, SUBBUCKET_BITS
        indices = [
            ns if ns < exact else
            ((shift := ns.bit_length() - bits - 1) << bits) + (ns >> shift)
            for ns in values]
        if counts is None:
            self._add(len(values), sum(values), low, high,
                      Counter(indices).items())
        else:
            self._add(sum(counts), sum(map(mul, values, counts)), low, high,
                      zip(indices, counts))

    def _add(self, count: int, total_ns: int, low: int, high: int,
             bucket_counts: Iterable[Tuple[int, int]]) -> None:
        """Account ``count`` bucketed samples (after a ``_fold``)."""
        if self._count == 0 or low < self._min_ns:
            self._min_ns = low
        if high > self._max_ns:
            self._max_ns = high
        self._count += count
        self._total_ns += total_ns
        buckets = self._buckets
        for index, n in bucket_counts:
            buckets[index] = buckets.get(index, 0) + n

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` in; exactly equivalent to recording its
        samples here (bucket counts are additive)."""
        theirs = other._fold()
        if other._count:
            self._fold()
            self._add(other._count, other._total_ns, other._min_ns,
                      other._max_ns, theirs.items())

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def total_ns(self) -> int:
        self._fold()
        return self._total_ns

    @property
    def buckets(self) -> Dict[int, int]:
        """Sparse bucket counts: bucket index -> samples."""
        return self._fold()

    @property
    def min_ns(self) -> int:
        self._fold()
        return self._min_ns if self._count else 0

    @property
    def max_ns(self) -> int:
        self._fold()
        return self._max_ns

    @property
    def mean_ns(self) -> float:
        self._fold()
        return self._total_ns / self._count if self._count else 0.0

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket holding the p-th percentile sample.

        The sample is the nearest-rank one, rank ``ceil(count * p /
        100)`` computed exactly from ``p`` as written (99.9 is 999/10,
        not the nearest float).  Exact for values below
        ``2 * SUBBUCKETS``; otherwise within ``1/SUBBUCKETS`` (6.25%)
        above the true sample.  Monotone non-decreasing in ``p`` and
        clamped to ``[min_ns, max_ns]``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        buckets = self._fold()
        if self._count == 0:
            return 0
        share = p if p.__class__ is int else Fraction(str(p))
        target = max(1, -(-self._count * share // 100))  # ceil
        running = 0
        for index in sorted(buckets):
            running += buckets[index]
            if running >= target:
                high = bucket_bounds(index)[1]
                return min(max(high, self._min_ns), self._max_ns)
        return self._max_ns  # pragma: no cover - target <= count always

    @property
    def p50(self) -> int:
        return self.percentile(50)

    @property
    def p90(self) -> int:
        return self.percentile(90)

    @property
    def p99(self) -> int:
        return self.percentile(99)

    @property
    def p999(self) -> int:
        return self.percentile(99.9)

    # ------------------------------------------------------------------
    # Bucket views (exporters, dashboards)
    # ------------------------------------------------------------------

    def iter_buckets(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(low_ns, high_ns, count)`` for occupied buckets."""
        buckets = self._fold()
        for index in sorted(buckets):
            low, high = bucket_bounds(index)
            yield low, high, buckets[index]

    def octaves(self) -> List[Tuple[int, int, int]]:
        """Bucket counts coarsened to power-of-two octaves.

        Returns ``(low, high, count)`` rows suitable for a compact ASCII
        rendering; empty octaves between occupied ones are included so
        bar charts keep a log-linear x axis.
        """
        buckets = self._fold()
        if not buckets:
            return []
        per_octave: Dict[int, int] = {}
        for index, count in buckets.items():
            low, _ = bucket_bounds(index)
            octave = low.bit_length() - 1 if low else 0
            per_octave[octave] = per_octave.get(octave, 0) + count
        lo, hi = min(per_octave), max(per_octave)
        return [((1 << o) if o else 0,
                 (1 << (o + 1)) - 1,
                 per_octave.get(o, 0))
                for o in range(lo, hi + 1)]

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """A plain-dict snapshot of the histogram.  Bucket keys are
        ints, so a JSON writer must store ``buckets`` as pairs (as
        :mod:`repro.core.persistence` does); ``load_state`` accepts
        either form."""
        buckets = self._fold()
        return {
            "count": self._count,
            "total_ns": self._total_ns,
            "min_ns": self._min_ns,
            "max_ns": self._max_ns,
            "buckets": dict(buckets),
        }

    def load_state(self, state: dict) -> None:
        """Restore a ``state_dict``; raises ``ValueError``, leaving the
        histogram as it was, on a state no recording could produce
        (snapshot files reach here)."""
        try:
            count, total, low, high = (state["count"], state["total_ns"],
                                       state["min_ns"], state["max_ns"])
            buckets = dict(state["buckets"])
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"histogram state: {error!r}") from None
        sizes = buckets.values()
        if {type(count), type(total), type(low), type(high),
                *map(type, buckets), *map(type, sizes)} != {int}:
            raise ValueError("histogram state: a count, bound, bucket "
                             "index or bucket size is not an int")
        if (sum(sizes) != count
                or buckets and (min(buckets) < 0 or min(sizes) < 1)):
            raise ValueError(f"histogram state: the buckets do not hold "
                             f"count = {count} samples")
        # Non-negative count, total and max follow from these.
        if not (0 <= low <= high and count * low <= total <= count * high
                if count else total == low == high == 0):
            raise ValueError(f"histogram state: min {low}, max {high} and "
                             f"total {total} do not fit {count} samples")
        self._count, self._total_ns = count, total
        self._min_ns, self._max_ns = low, high
        self._buckets = buckets
        self._tally = None

    @classmethod
    def from_state(cls, state: dict) -> "LatencyHistogram":
        hist = cls()
        hist.load_state(state)
        return hist

    # ------------------------------------------------------------------

    def __str__(self) -> str:
        if self.count == 0:
            return "n=0 (empty)"
        return (f"n={self.count} mean={self.mean_ns:.0f}ns "
                f"p50={self.p50} p99={self.p99} "
                f"[{self.min_ns}..{self.max_ns}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self}>"
