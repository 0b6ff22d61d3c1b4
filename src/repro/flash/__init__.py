"""Flash memory substrate: segments and the full array.

Models the write-once, bulk-erase Flash devices of Section 2 and the wide
bank/segment organisation of Sections 3.3-3.4 (Figure 4).
"""

from .array import FlashArray, WearStats
from .errors import (AddressError, BadBlockError, EnduranceExceeded,
                     EraseError, FlashError, ProgramError,
                     TransientEraseError, TransientProgramError,
                     UncorrectableDataError)
from .oob import (CHECKPOINT, DATA, OOB_BYTES, OobRecord, pack_oob,
                  payload_crc, unpack_oob)
from .segment import FlashSegment, PageState

__all__ = [
    "FlashArray",
    "WearStats",
    "FlashSegment",
    "PageState",
    "FlashError",
    "ProgramError",
    "EraseError",
    "AddressError",
    "EnduranceExceeded",
    "TransientProgramError",
    "TransientEraseError",
    "BadBlockError",
    "UncorrectableDataError",
    "OobRecord",
    "pack_oob",
    "unpack_oob",
    "payload_crc",
    "OOB_BYTES",
    "DATA",
    "CHECKPOINT",
]
