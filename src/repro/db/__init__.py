"""TPC-A database substrate: layout, records, B-trees, the database.

Implements Section 5.2's data model as a working database over eNVy's
memory-mapped storage API.
"""

from .btree import BTree, BTreeError
from .layout import BTreeGeometry, TpcaLayout
from .records import BALANCE_OFFSET, RECORD_BYTES, BalanceRecord
from .tpca_db import TpcaDatabase, TransactionResult

__all__ = [
    "TpcaLayout",
    "BTreeGeometry",
    "BTree",
    "BTreeError",
    "BalanceRecord",
    "RECORD_BYTES",
    "BALANCE_OFFSET",
    "TpcaDatabase",
    "TransactionResult",
]
