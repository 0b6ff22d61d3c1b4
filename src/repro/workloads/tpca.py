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
from typing import Iterator, List, Optional, Tuple

from ..core.config import TpcParams
from ..db.layout import (ENTRY_BYTES, NODE_HEADER_BYTES, WORD_BYTES,
                         BTreeGeometry, TpcaLayout)

__all__ = ["Access", "TpcaTransaction", "TpcaWorkload"]

#: One host access: (is_write, byte_address).
Access = Tuple[bool, int]

READ = False
WRITE = True

#: Offset of the 8-byte balance field inside a 100-byte record.
BALANCE_OFFSET = 8


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

    def accesses(self, txn: TpcaTransaction) -> List[Access]:
        """The host accesses one transaction performs, in order.

        Per record type: walk its index tree (binary-search probes plus
        the child-pointer read at each node), read the 100-byte record,
        then write its balance word.  Accounts are processed first, then
        teller and branch, matching the real database.
        """
        trace: List[Access] = []
        record_bytes = self._record_bytes
        word_offsets = self._record_word_offsets
        for (tree, base), key in zip(self._tables, (txn.account, txn.teller,
                                                    txn.branch)):
            # search_path refuses a key outside the table.
            self._tree_search_accesses(tree, key, trace)
            record_address = base + key * record_bytes
            for offset in word_offsets:
                trace.append((READ, record_address + offset))
            trace.append((WRITE, record_address + BALANCE_OFFSET))
        return trace

    @staticmethod
    def _tree_search_accesses(tree: BTreeGeometry, key: int,
                              trace: List[Access]) -> None:
        path = tree.search_path(key)
        for level, node_address in enumerate(path):
            slot = tree.child_slot(key, level)
            entries = tree.fanout  # interior levels are fully packed
            if level == tree.depth - 1:
                entries = min(tree.fanout,
                              tree.num_keys - (key // tree.fanout)
                              * tree.fanout)
            for probe in tree.probe_offsets(node_address, slot, entries):
                trace.append((READ, probe))
            # Follow the child pointer (or fetch the leaf value).
            trace.append((READ, node_address + NODE_HEADER_BYTES
                          + slot * ENTRY_BYTES + WORD_BYTES))

    def accesses_per_transaction(self) -> int:
        """Accesses of a representative transaction (for sizing runs)."""
        sample = TpcaTransaction(self.params.num_accounts // 2,
                                 self.params.num_tellers // 2,
                                 self.params.num_branches // 2, 0)
        return len(self.accesses(sample))

    def reset(self, seed: Optional[int] = None) -> None:
        self.rng = random.Random(seed if seed is not None else None)
        self._clock_ns = 0.0
