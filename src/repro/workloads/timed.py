"""Generic timed workloads for the event-driven simulator.

The timed simulator's workload protocol is three things: a request rate
(``rate_tps``), a stream of arrival-stamped operations
(``next_transaction()``), and each operation's storage accesses grouped
into page runs (``runs(txn, page_bytes)``, see
:func:`~repro.workloads.tpca.page_runs`).
:class:`~repro.workloads.tpca.TpcaWorkload` provides the paper's
workload; this module provides a configurable synthetic one so
the Figure 13-15 methodology can be pointed at any read/write mix —
key-value traffic, logging, analytics scans — without building a full
application model first.

Each "transaction" performs ``reads_per_op`` word reads and
``writes_per_op`` word writes at addresses drawn from any page-level
:class:`~repro.workloads.base.WriteWorkload` (uniform, bimodal, Zipf,
sequential, a recorded trace...), so the locality machinery composes.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .base import WriteWorkload
from .tpca import READ, WRITE, Access, Run, TpcaTransaction, page_runs

__all__ = ["SyntheticTimedWorkload"]


class SyntheticTimedWorkload:
    """Poisson-arriving operations with a configurable access mix.

    Satisfies the timed simulator's workload protocol (``rate_tps``,
    ``next_transaction()``, ``runs(txn, page_bytes)``).
    """

    def __init__(self, address_space_bytes: int, rate_tps: float,
                 reads_per_op: int = 8, writes_per_op: int = 2,
                 page_workload: Optional[WriteWorkload] = None,
                 page_bytes: int = 256, word_bytes: int = 8,
                 seed: Optional[int] = None) -> None:
        if rate_tps <= 0:
            raise ValueError("rate must be positive")
        if reads_per_op < 0 or writes_per_op < 0 \
                or reads_per_op + writes_per_op == 0:
            raise ValueError("operations need at least one access")
        if address_space_bytes < page_bytes:
            raise ValueError("address space smaller than one page")
        self.rate_tps = rate_tps
        self.mean_interarrival_ns = 1e9 / rate_tps
        self.reads_per_op = reads_per_op
        self.writes_per_op = writes_per_op
        self.page_bytes = page_bytes
        self.word_bytes = word_bytes
        self.num_pages = address_space_bytes // page_bytes
        self._words_per_page = max(1, page_bytes // word_bytes)
        if page_workload is None:
            from .uniform import UniformWorkload

            page_workload = UniformWorkload(self.num_pages, seed=seed)
        if page_workload.num_pages > self.num_pages:
            raise ValueError(
                f"page workload covers {page_workload.num_pages} pages "
                f"but only {self.num_pages} fit the address space")
        self.page_workload = page_workload
        self.rng = random.Random(seed)
        self._clock_ns = 0.0
        self._sequence = 0

    # ------------------------------------------------------------------

    def next_transaction(self) -> TpcaTransaction:
        """Draw the next operation (reusing the transaction envelope)."""
        self._clock_ns += (self.rng.expovariate(1.0)
                           * self.mean_interarrival_ns)
        self._sequence += 1
        return TpcaTransaction(self._sequence, 0, 0, int(self._clock_ns))

    def _word_address(self) -> int:
        page = self.page_workload.next_page()
        offset = self.rng.randrange(self._words_per_page) * self.word_bytes
        return page * self.page_bytes + offset

    def accesses(self, txn: TpcaTransaction) -> List[Access]:
        trace: List[Tuple[bool, int]] = []
        for _ in range(self.reads_per_op):
            trace.append((READ, self._word_address()))
        for _ in range(self.writes_per_op):
            trace.append((WRITE, self._word_address()))
        return trace

    def runs(self, txn: TpcaTransaction, page_bytes: int) -> List[Run]:
        return page_runs(self.accesses(txn), page_bytes)

    def accesses_per_transaction(self) -> int:
        return self.reads_per_op + self.writes_per_op

    def reset(self, seed: Optional[int] = None) -> None:
        self.rng = random.Random(seed)
        self.page_workload.reset()
        self._clock_ns = 0.0
        self._sequence = 0
