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
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = ["LatencyHistogram", "SUBBUCKETS", "RELATIVE_ERROR", "BULK_MIN"]

#: Sub-buckets per power-of-two octave (must be a power of two).
SUBBUCKET_BITS = 4
SUBBUCKETS = 1 << SUBBUCKET_BITS
#: Worst-case relative bucket width for values >= ``2 * SUBBUCKETS``.
RELATIVE_ERROR = 1 / SUBBUCKETS
#: Samples from which ``record_many`` folds in bulk (measured crossover
#: against ``record`` in a loop: 190 vs 280 ns a sample past it, 2-5x
#: slower below 16).
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


class LatencyHistogram:
    """Streaming histogram of non-negative integer samples (nanoseconds).

    API superset of the old ``LatencyStat``: ``record``, ``merge``,
    ``count``, ``total_ns``, ``min_ns``, ``max_ns``, ``mean_ns`` behave
    identically; percentiles, bucket iteration and snapshot/restore are
    new.
    """

    __slots__ = ("count", "total_ns", "_min_ns", "_max_ns", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self._min_ns = 0
        self._max_ns = 0
        #: Sparse bucket counts: bucket index -> samples.
        self.buckets: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, ns: int) -> None:
        # Called twice per simulated access (controller metric + driver
        # stat) and every in-repo caller passes an int: coerce only what
        # is not one (floats, bools, numpy integers).
        if ns.__class__ is not int:
            ns = int(ns)
        # bucket_index(ns), inlined — the function-call overhead would
        # dominate — with the negative clamp folded into its exact-value
        # branch.
        if ns < 2 * SUBBUCKETS:
            if ns < 0:
                ns = 0
            index = ns
        else:
            shift = ns.bit_length() - (SUBBUCKET_BITS + 1)
            index = (((shift + 1) << SUBBUCKET_BITS)
                     + ((ns >> shift) - SUBBUCKETS))
        if self.count == 0 or ns < self._min_ns:
            self._min_ns = ns
        if ns > self._max_ns:
            self._max_ns = ns
        self.count += 1
        self.total_ns += ns
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1

    def record_n(self, ns: int, n: int) -> None:
        """Exactly ``n`` calls of ``record(ns)``; ``n == 0`` is a no-op.

        A run of back-to-back reads of one page costs the same every
        time (an MMU hit on the entry the head installed), so the read
        path prices the run once and accounts the repeats here.
        ``record`` keeps its own copy of the arithmetic: delegating
        would put a second call on every single-sample record.
        """
        if n <= 0:
            if n < 0:
                raise ValueError(f"cannot record {n} samples")
            return
        if ns.__class__ is not int:
            ns = int(ns)
        if ns < 2 * SUBBUCKETS:
            if ns < 0:
                ns = 0
            index = ns
        else:
            shift = ns.bit_length() - (SUBBUCKET_BITS + 1)
            index = (((shift + 1) << SUBBUCKET_BITS)
                     + ((ns >> shift) - SUBBUCKETS))
        if self.count == 0 or ns < self._min_ns:
            self._min_ns = ns
        if ns > self._max_ns:
            self._max_ns = ns
        self.count += n
        self.total_ns += ns * n
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + n

    def record_many(self, values: Sequence[int]) -> None:
        """Exactly ``record(ns)`` for each of ``values``, as C-level folds
        over the whole sequence (a consumer that reads its histogram only
        at the end of a stretch collects the stretch and accounts it
        here).  The folds cost ~2.5 us before the first sample, so a
        short sequence is recorded one sample at a time."""
        if len(values) < BULK_MIN:
            for ns in values:
                self.record(ns)
            return
        values = [ns if ns.__class__ is int else int(ns) for ns in values]
        low, high = min(values), max(values)
        if low < 0:
            values = [ns if ns > 0 else 0 for ns in values]
            low, high = 0, max(high, 0)
        if self.count == 0 or low < self._min_ns:
            self._min_ns = low
        if high > self._max_ns:
            self._max_ns = high
        self.count += len(values)
        self.total_ns += sum(values)
        # bucket_index(ns) with its two terms of SUBBUCKETS cancelled.
        exact, bits = 2 * SUBBUCKETS, SUBBUCKET_BITS
        buckets = self.buckets
        for index, n in Counter([
                ns if ns < exact else
                ((shift := ns.bit_length() - bits - 1) << bits)
                + (ns >> shift) for ns in values]).items():
            buckets[index] = buckets.get(index, 0) + n

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` in; exactly equivalent to recording its
        samples here (bucket counts are additive)."""
        if other.count == 0:
            return
        if self.count == 0 or other._min_ns < self._min_ns:
            self._min_ns = other._min_ns
        if other._max_ns > self._max_ns:
            self._max_ns = other._max_ns
        self.count += other.count
        self.total_ns += other.total_ns
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count

    def reset(self) -> None:
        self.count = 0
        self.total_ns = 0
        self._min_ns = 0
        self._max_ns = 0
        self.buckets = {}

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------

    @property
    def min_ns(self) -> int:
        return self._min_ns if self.count else 0

    @property
    def max_ns(self) -> int:
        return self._max_ns

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket holding the p-th percentile sample.

        Exact for values below ``2 * SUBBUCKETS``; otherwise within
        ``1/SUBBUCKETS`` (6.25%) above the true sample.  Monotone
        non-decreasing in ``p`` and clamped to ``[min_ns, max_ns]``.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0
        target = max(1, -(-self.count * p // 100))  # ceil
        running = 0
        for index in sorted(self.buckets):
            running += self.buckets[index]
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

    def percentiles(self) -> Dict[str, int]:
        """The standard tail summary as a flat dict."""
        return {"p50": self.p50, "p90": self.p90,
                "p99": self.p99, "p999": self.p999}

    # ------------------------------------------------------------------
    # Bucket views (exporters, dashboards)
    # ------------------------------------------------------------------

    def iter_buckets(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(low_ns, high_ns, count)`` for occupied buckets."""
        for index in sorted(self.buckets):
            low, high = bucket_bounds(index)
            yield low, high, self.buckets[index]

    def octaves(self) -> List[Tuple[int, int, int]]:
        """Bucket counts coarsened to power-of-two octaves.

        Returns ``(low, high, count)`` rows suitable for a compact ASCII
        rendering; empty octaves between occupied ones are included so
        bar charts keep a log-linear x axis.
        """
        if not self.buckets:
            return []
        per_octave: Dict[int, int] = {}
        for index, count in self.buckets.items():
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
        """A plain, JSON/pickle-friendly snapshot of the histogram."""
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self._min_ns,
            "max_ns": self._max_ns,
            "buckets": {int(k): int(v) for k, v in self.buckets.items()},
        }

    def load_state(self, state: dict) -> None:
        self.count = int(state["count"])
        self.total_ns = int(state["total_ns"])
        self._min_ns = int(state["min_ns"])
        self._max_ns = int(state["max_ns"])
        self.buckets = {int(k): int(v)
                        for k, v in state["buckets"].items()}

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
