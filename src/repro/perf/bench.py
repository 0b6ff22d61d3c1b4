"""Machine-speed calibration for wall-clock benchmarks.

Raw wall-clock numbers are only comparable on one machine, so the
repo's benchmark (``BENCHMARK.json``, ``benchmarks/e2e/``) divides its
throughputs by this score before comparing two commits or two hosts.
"""

from __future__ import annotations

import time

__all__ = ["calibrate"]


def calibrate(iterations: int = 2_000_000) -> float:
    """Machine speed score: fixed pure-Python loop, iterations/s."""
    start = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i & 7
    elapsed = time.perf_counter() - start
    assert x >= 0
    return iterations / elapsed
