"""Address-space layout of the TPC-A database inside eNVy (Section 5.2).

The database is three record arrays (branch, teller, account — 100-byte
balance records) plus three B-tree indexes with 32 entries per node
(Figure 12).  This module computes every address *deterministically from
the configuration*, so the real database (:mod:`repro.db.tpca_db`) and
the trace generator the timed simulator uses
(:mod:`repro.workloads.tpca`) are guaranteed to touch the same pages —
a property the integration tests check explicitly.

Index trees are laid out for a bulk load of the full key range
0..n-1: leaves hold up to 32 sorted keys; each upper level packs 32
children per node.  Node *i* of level *l* (level 0 = root) covers keys
``i * 32**(depth-l)`` onward, so the search path for a key is pure
arithmetic — no pointers needed to predict it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Tuple

from ..core.config import TpcParams

__all__ = ["BTreeGeometry", "TpcaLayout"]

#: Bytes per B-tree entry: 8-byte key + 8-byte value/child pointer.
ENTRY_BYTES = 16
#: Node header: entry count (2), leaf flag (1), padding (13) = 16 bytes.
NODE_HEADER_BYTES = 16
WORD_BYTES = 8
#: Distinct ``(target_slot, entries)`` pairs of a 32-entry node.
_PROBE_SHAPES = 32 * 32


@lru_cache(maxsize=_PROBE_SHAPES)
def _relative_probes(target_slot: int, entries: int) -> Tuple[int, ...]:
    """Byte offsets, from the node's address, of the key words a binary
    search for ``target_slot`` reads.  A pure function of its two small
    arguments, so every node of every tree shares the memoised tuple."""
    if entries <= 0:
        return ()
    lo, hi = 0, entries
    probes = []
    while lo < hi - 1:
        mid = (lo + hi) // 2
        probes.append(mid)
        if target_slot < mid:
            hi = mid
        else:
            lo = mid
    if lo not in probes:
        probes.append(lo)
    return tuple(NODE_HEADER_BYTES + p * ENTRY_BYTES for p in probes)


@dataclass(frozen=True)
class BTreeGeometry:
    """Static geometry of one bulk-loaded B-tree."""

    base_address: int
    num_keys: int
    fanout: int

    @property
    def node_bytes(self) -> int:
        return NODE_HEADER_BYTES + self.fanout * ENTRY_BYTES

    # The geometry is immutable and the TPC-A generator asks for depth
    # and level bases on every access: derive them once per instance
    # (cached_property stores into __dict__, which frozen allows).

    @cached_property
    def depth(self) -> int:
        """Number of levels (root inclusive); matches Figure 12."""
        if self.num_keys <= 1:
            return 1
        levels = 1
        capacity = self.fanout
        while capacity < self.num_keys:
            capacity *= self.fanout
            levels += 1
        return levels

    @cached_property
    def _level_spans(self) -> Tuple[int, ...]:
        """Keys under one entry of a node, per level (1 at the leaves)."""
        return tuple(self.fanout ** (self.depth - 1 - level)
                     for level in range(self.depth))

    def nodes_in_level(self, level: int) -> int:
        """Nodes in ``level`` (0 = root, depth-1 = leaves)."""
        return -(-self.num_keys // (self._level_spans[level] * self.fanout))

    @property
    def total_nodes(self) -> int:
        return sum(self.nodes_in_level(l) for l in range(self.depth))

    @property
    def total_bytes(self) -> int:
        return self.total_nodes * self.node_bytes

    @cached_property
    def _level_bases(self) -> Tuple[int, ...]:
        bases = [self.base_address]
        for level in range(self.depth):
            bases.append(bases[-1]
                         + self.nodes_in_level(level) * self.node_bytes)
        return tuple(bases)

    def level_base(self, level: int) -> int:
        """Address of the first node of ``level`` (root stored first)."""
        if not 0 <= level <= self.depth:
            raise IndexError(f"no level {level} in a {self.depth}-level tree")
        return self._level_bases[level]

    def node_address(self, level: int, index: int) -> int:
        return self.level_base(level) + index * self.node_bytes

    def search_nodes(self, key: int) -> List[Tuple[int, int, int]]:
        """``(node address, slot followed, entries held)`` for each node
        visited looking up ``key``, root to leaf.  Interior nodes are
        fully packed; the last leaf holds whatever keys are left."""
        if not 0 <= key < self.num_keys:
            raise KeyError(f"key {key} outside 0..{self.num_keys - 1}")
        fanout = self.fanout
        node_bytes = self.node_bytes
        nodes = []
        for base, span in zip(self._level_bases, self._level_spans):
            index, slot = divmod(key // span, fanout)
            nodes.append((base + index * node_bytes, slot, fanout))
        leaf_keys = self.num_keys - index * fanout
        if leaf_keys < fanout:
            nodes[-1] = (nodes[-1][0], slot, leaf_keys)
        return nodes

    def search_path(self, key: int) -> List[int]:
        """Node addresses visited looking up ``key`` (root to leaf)."""
        return [address for address, _, _ in self.search_nodes(key)]

    @staticmethod
    def probe_offsets(node_address: int, target_slot: int,
                      entries: int) -> List[int]:
        """Addresses of the key words a binary search reads in one node.

        Deterministic bisection over the sorted entries; the final probe
        lands on the target slot.  These are the word reads the host
        issues while walking a node (about log2(32) + 1 of them).
        """
        return [node_address + offset
                for offset in _relative_probes(target_slot, entries)]


@dataclass(frozen=True)
class TpcaLayout:
    """Complete address map of the TPC-A database."""

    params: TpcParams

    # --- record arrays -------------------------------------------------

    @property
    def branch_base(self) -> int:
        return 0

    @property
    def teller_base(self) -> int:
        return (self.branch_base
                + self.params.num_branches * self.params.record_bytes)

    @property
    def account_base(self) -> int:
        return (self.teller_base
                + self.params.num_tellers * self.params.record_bytes)

    def branch_address(self, branch: int) -> int:
        self._check(branch, self.params.num_branches, "branch")
        return self.branch_base + branch * self.params.record_bytes

    def teller_address(self, teller: int) -> int:
        self._check(teller, self.params.num_tellers, "teller")
        return self.teller_base + teller * self.params.record_bytes

    def account_address(self, account: int) -> int:
        self._check(account, self.params.num_accounts, "account")
        return self.account_base + account * self.params.record_bytes

    @staticmethod
    def _check(index: int, limit: int, kind: str) -> None:
        if not 0 <= index < limit:
            raise KeyError(f"{kind} {index} outside 0..{limit - 1}")

    # --- index trees ----------------------------------------------------
    # Three immutable geometries per layout, built once: the trace
    # generator asks for all three on every transaction.

    @cached_property
    def branch_tree(self) -> BTreeGeometry:
        base = (self.account_base
                + self.params.num_accounts * self.params.record_bytes)
        return BTreeGeometry(base, self.params.num_branches,
                             self.params.btree_fanout)

    @cached_property
    def teller_tree(self) -> BTreeGeometry:
        branch = self.branch_tree
        return BTreeGeometry(branch.base_address + branch.total_bytes,
                             self.params.num_tellers,
                             self.params.btree_fanout)

    @cached_property
    def account_tree(self) -> BTreeGeometry:
        teller = self.teller_tree
        return BTreeGeometry(teller.base_address + teller.total_bytes,
                             self.params.num_accounts,
                             self.params.btree_fanout)

    @property
    def total_bytes(self) -> int:
        tree = self.account_tree
        return tree.base_address + tree.total_bytes

    @classmethod
    def sized_for(cls, logical_bytes: int,
                  params: TpcParams = None,
                  fill_fraction: float = 0.96) -> "TpcaLayout":
        """Scale the database to ``fill_fraction`` of the logical space.

        Mirrors Section 5.2 ("The database can be scaled to fit any
        storage system using the ratios described above"): the 2 GB paper
        system manages 15.5 million accounts, i.e. the account records
        dominate and fill nearly all of the 80% live space.
        """
        params = params or TpcParams()
        budget = int(logical_bytes * fill_fraction)
        accounts = budget // (params.record_bytes + 2)  # + index overhead
        while accounts > 0:
            layout = cls(params.scaled_to_accounts(accounts))
            if layout.total_bytes <= budget:
                return layout
            accounts = int(accounts * 0.98)
        raise ValueError("logical space too small for any database")
