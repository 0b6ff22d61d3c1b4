"""A B-tree stored in eNVy's linear memory (Section 5.2, Figure 12).

"The simulator implements each index tree as a B-Tree with 32 entries
per node."  This is the real data structure: nodes are serialised into
the byte-addressable eNVy space and every probe is an actual memory read
through the controller, so index searches exercise the same storage path
the paper's simulated database does.

:meth:`BTree.bulk_load` builds a packed tree for keys 0..n-1 in the
deterministic layout of :class:`~repro.db.layout.BTreeGeometry`.  This
is how the TPC-A database is created, and it makes the tree's access
pattern predictable enough for the trace generator to mirror.  TPC-A
only searches its indexes (records are updated in place), so the tree
has no insert, delete or scan.

Node format (16-byte header + 32 x 16-byte entries = 528 bytes):

    count (2) | leaf flag (1) | padding (13) | [key (8) | value (8)] x 32

For interior nodes ``value`` is the child node's address; for leaves it
is the user value (the TPC-A database stores record addresses).
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional

from .layout import ENTRY_BYTES, NODE_HEADER_BYTES, BTreeGeometry

__all__ = ["BTree", "BTreeError"]

_HEADER = struct.Struct("<HB13x")
_ENTRY = struct.Struct("<qq")


class BTreeError(Exception):
    """Raised for malformed trees or failed operations."""


class _Node:
    """In-memory image of one node (serialised on every store)."""

    __slots__ = ("address", "count", "leaf", "keys", "values")

    def __init__(self, address: int, leaf: bool) -> None:
        self.address = address
        self.leaf = leaf
        self.count = 0
        self.keys: List[int] = []
        self.values: List[int] = []


class BTree:
    """A fanout-32 B-tree over a byte-addressable memory object.

    ``memory`` must provide ``read(address, length) -> bytes`` and
    ``write(address, data)`` — the :class:`~repro.core.controller.
    EnvySystem` interface.
    """

    def __init__(self, memory, root_address: int, fanout: int = 32) -> None:
        if fanout < 3:
            raise ValueError("fanout must be at least 3")
        self.memory = memory
        self.fanout = fanout
        self.node_bytes = NODE_HEADER_BYTES + fanout * ENTRY_BYTES
        self.root_address = root_address

    # ------------------------------------------------------------------
    # Node (de)serialisation
    # ------------------------------------------------------------------

    def _load(self, address: int) -> _Node:
        raw = self.memory.read(address, self.node_bytes)
        count, leaf = _HEADER.unpack_from(raw)
        if count > self.fanout:
            raise BTreeError(f"node at {address} has count {count} "
                             f"> fanout {self.fanout}")
        node = _Node(address, bool(leaf))
        node.count = count
        offset = NODE_HEADER_BYTES
        for _ in range(count):
            key, value = _ENTRY.unpack_from(raw, offset)
            node.keys.append(key)
            node.values.append(value)
            offset += ENTRY_BYTES
        return node

    def _store(self, node: _Node) -> None:
        parts = [_HEADER.pack(len(node.keys), int(node.leaf))]
        for key, value in zip(node.keys, node.values):
            parts.append(_ENTRY.pack(key, value))
        free = self.fanout - len(node.keys)
        parts.append(b"\x00" * (free * ENTRY_BYTES))
        self.memory.write(node.address, b"".join(parts))

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(cls, memory, geometry: BTreeGeometry,
                  value_of: Callable[[int], int]) -> "BTree":
        """Build a packed tree for keys 0..n-1 at ``geometry``'s layout.

        ``value_of(key)`` supplies each leaf value (e.g. the record
        address).  Interior levels are written fully packed so that the
        node visited for any key is computable arithmetically — the
        property the TPC-A trace generator relies on.
        """
        tree = cls(memory, geometry.base_address, geometry.fanout)
        fanout = geometry.fanout
        depth = geometry.depth
        for level in range(depth - 1, -1, -1):
            nodes = geometry.nodes_in_level(level)
            span = fanout ** (depth - 1 - level)
            for index in range(nodes):
                node = _Node(geometry.node_address(level, index),
                             leaf=(level == depth - 1))
                first_key = index * span * fanout
                for slot in range(fanout):
                    key = first_key + slot * span
                    if key >= geometry.num_keys:
                        break
                    node.keys.append(key)
                    if node.leaf:
                        node.values.append(value_of(key))
                    else:
                        child = geometry.node_address(
                            level + 1, index * fanout + slot)
                        node.values.append(child)
                tree._store(node)
        return tree

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def search(self, key: int) -> Optional[int]:
        """Return the value stored for ``key``, or None."""
        address = self.root_address
        while True:
            node = self._load(address)
            if node.count == 0:
                return None
            index = self._position(node, key)
            if node.leaf:
                if index < node.count and node.keys[index] == key:
                    return node.values[index]
                return None
            address = node.values[self._child_for(node, key, index)]

    @staticmethod
    def _position(node: _Node, key: int) -> int:
        """Index of the first key >= ``key`` (binary search)."""
        lo, hi = 0, node.count
        while lo < hi:
            mid = (lo + hi) // 2
            if node.keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    @staticmethod
    def _child_for(node: _Node, key: int, index: int) -> int:
        """Child slot covering ``key`` in an interior node.

        Interior keys are the minimum keys of their subtrees, so descend
        into the last child whose separator key is <= the target.
        """
        if index == node.count or node.keys[index] != key:
            index = max(0, index - 1)
        return index
