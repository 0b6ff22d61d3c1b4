"""TPC-A transaction workload (Section 5.2).

"TPC-A models a banking transaction system made up of several banks,
bank tellers, and individual accounts such that for every bank, there
are 10 tellers, each of which is responsible for 10,000 accounts. ...
Each transaction involves an atomic operation consisting of changing the
balance of an individual account and updating the corresponding bank and
teller records to reflect the change.  For each transaction, three index
trees have to be searched to find the desired records, and three actual
records have to be modified."

This module generates, per transaction, the exact sequence of host
memory accesses (word reads/writes with their byte addresses) the
database layer would issue: the binary-search probes down each B-tree,
the full read of each 100-byte record, and the balance-word updates.
The addresses come from the shared :class:`~repro.db.layout.TpcaLayout`,
so they match the real database byte for byte — the timed simulator can
replay transactions without materialising any data.

Account numbers are uniform; arrival times are exponential with the mean
set by the requested transaction rate (Section 5.2).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.config import TpcParams
from ..db.layout import (ENTRY_BYTES, NODE_HEADER_BYTES, WORD_BYTES,
                         BTreeGeometry, TpcaLayout)

__all__ = ["Access", "Run", "WORD_WRITE", "STRADDLING_READ", "page_runs",
           "TpcaTransaction", "TpcaWorkload"]

#: One host access: (is_write, byte_address).
Access = Tuple[bool, int]

READ = False
WRITE = True

#: One step of a transaction as the timed simulator executes it,
#: ``(where, count)``: ``count >= 1`` back-to-back word reads inside
#: page ``where`` (one priced wide transfer, Section 3.2), or one of the
#: two word-sized steps below at byte address ``where``.
Run = Tuple[int, int]
#: ``count`` of a word write.
WORD_WRITE = 0
#: ``count`` of a word read that crosses into the next page (TPC-A's
#: 100-byte records do): both pages are charged.
STRADDLING_READ = -1

#: Offset of the 8-byte balance field inside a 100-byte record.
BALANCE_OFFSET = 8
#: ``slot`` of a segment that is a record, not a tree node.
_RECORD = -1


def page_runs(accesses: Iterable[Access], page_bytes: int) -> List[Run]:
    """Group word accesses into the runs the timed simulator prices.

    The one grouping rule: consecutive word reads inside one page are a
    read run; anything else — a write, another page, a word straddling
    a page boundary — closes the open run.
    """
    runs: List[Run] = []
    last_word = page_bytes - WORD_BYTES
    open_page = -1
    for is_write, address in accesses:
        page, offset = divmod(address, page_bytes)
        if is_write or offset > last_word:
            runs.append((address, WORD_WRITE if is_write
                         else STRADDLING_READ))
            open_page = -1
        elif page == open_page:
            runs[-1] = (page, runs[-1][1] + 1)
        else:
            runs.append((page, 1))
            open_page = page
    return runs


class TpcaTransaction:
    """The accounts/teller/branch touched by one transaction."""

    __slots__ = ("account", "teller", "branch", "arrival_ns")

    def __init__(self, account: int, teller: int, branch: int,
                 arrival_ns: int) -> None:
        self.account = account
        self.teller = teller
        self.branch = branch
        self.arrival_ns = arrival_ns


class TpcaWorkload:
    """Generates TPC-A transactions and their storage access traces."""

    def __init__(self, layout: TpcaLayout, rate_tps: float,
                 seed: Optional[int] = None) -> None:
        if rate_tps <= 0:
            raise ValueError("transaction rate must be positive")
        self.layout = layout
        self.params: TpcParams = layout.params
        self.rate_tps = rate_tps
        self.mean_interarrival_ns = 1e9 / rate_tps
        self.rng = random.Random(seed)
        self._clock_ns = 0.0
        # The layout is frozen, and its shape (branches, tellers, record
        # bases) is re-derived property by property on every read: take
        # what each transaction needs once.
        params = self.params
        self._num_accounts = params.num_accounts
        self._accounts_per_teller = params.accounts_per_teller
        self._last_teller = params.num_tellers - 1
        self._tellers_per_branch = params.tellers_per_branch
        self._record_bytes = params.record_bytes
        self._record_word_offsets = tuple(range(
            0, -(-params.record_bytes // WORD_BYTES) * WORD_BYTES,
            WORD_BYTES))
        #: (page_bytes, offset in page, slot, entries) -> the segment's
        #: runs when it starts at that offset of page 0.  A pure
        #: function of the layout, bounded by its shape.
        self._run_patterns: Dict[Tuple[int, int, int, int],
                                 Tuple[Run, ...]] = {}
        #: (index tree, record array base) in the order a transaction
        #: visits them: account, teller, branch.
        self._tables = ((layout.account_tree, layout.account_base),
                        (layout.teller_tree, layout.teller_base),
                        (layout.branch_tree, layout.branch_base))

    # ------------------------------------------------------------------
    # Transaction stream
    # ------------------------------------------------------------------

    def next_transaction(self) -> TpcaTransaction:
        """Draw the next transaction (uniform account, Poisson arrivals)."""
        rng = self.rng
        account = rng.randrange(self._num_accounts)
        # The account's home teller and branch (1 branch : 10 tellers :
        # 100,000 accounts).
        teller = min(account // self._accounts_per_teller,
                     self._last_teller)
        branch = teller // self._tellers_per_branch
        self._clock_ns += rng.expovariate(1.0) * self.mean_interarrival_ns
        return TpcaTransaction(account, teller, branch,
                               int(self._clock_ns))

    def transactions(self, count: int) -> Iterator[TpcaTransaction]:
        for _ in range(count):
            yield self.next_transaction()

    # ------------------------------------------------------------------
    # Access traces
    # ------------------------------------------------------------------

    def _segments(self, txn: TpcaTransaction) -> List[Tuple[int, int, int]]:
        """The contiguous pieces one transaction touches, in order, as
        ``(base address, slot, entries)``: per record type the nodes on
        its index tree's search path, then the record itself (``slot``
        :data:`_RECORD`).  Accounts first, then teller and branch,
        matching the real database."""
        record_bytes = self._record_bytes
        segments: List[Tuple[int, int, int]] = []
        for (tree, base), key in zip(self._tables, (txn.account, txn.teller,
                                                    txn.branch)):
            # search_nodes refuses a key outside the table.
            segments += tree.search_nodes(key)
            segments.append((base + key * record_bytes, _RECORD, 0))
        return segments

    def _segment_accesses(self, address: int, slot: int,
                          entries: int) -> List[Access]:
        """Word accesses to one segment based at ``address``.

        A tree node: the binary-search probes, then the child pointer
        (or leaf value) of the slot followed.  A record: every word of
        its 100 bytes read, then the balance word written.
        """
        if slot == _RECORD:
            trace = [(READ, address + offset)
                     for offset in self._record_word_offsets]
            trace.append((WRITE, address + BALANCE_OFFSET))
            return trace
        trace = [(READ, probe) for probe in BTreeGeometry.probe_offsets(
            address, slot, entries)]
        trace.append((READ, address + NODE_HEADER_BYTES
                      + slot * ENTRY_BYTES + WORD_BYTES))
        return trace

    def accesses(self, txn: TpcaTransaction) -> List[Access]:
        """The host accesses one transaction performs, in order."""
        trace: List[Access] = []
        segment_accesses = self._segment_accesses
        for address, slot, entries in self._segments(txn):
            trace += segment_accesses(address, slot, entries)
        return trace

    def runs(self, txn: TpcaTransaction, page_bytes: int) -> List[Run]:
        """``page_runs(self.accesses(txn), page_bytes)`` from the layout
        arithmetic: one ``divmod`` per segment places a memoised run
        pattern, and a read run that continues in the page the previous
        segment ended in is merged into it."""
        patterns = self._run_patterns
        runs: List[Run] = []
        open_page = -1
        for address, slot, entries in self._segments(txn):
            page, offset = divmod(address, page_bytes)
            key = (page_bytes, offset, slot, entries)
            pattern = patterns.get(key)
            if pattern is None:
                pattern = patterns[key] = tuple(page_runs(
                    self._segment_accesses(offset, slot, entries),
                    page_bytes))
            for where, count in pattern:
                if count < 1:
                    runs.append((address - offset + where, count))
                    open_page = -1
                elif page + where == open_page:
                    runs[-1] = (open_page, runs[-1][1] + count)
                else:
                    open_page = page + where
                    runs.append((open_page, count))
        return runs
