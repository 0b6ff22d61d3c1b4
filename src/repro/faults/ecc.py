"""Per-page SEC-DED error correction (extended Hamming code).

eNVy's controller already owns a wide datapath between Flash and SRAM
(Section 3.3); real controllers hang an ECC engine off that path.  This
module models one: each programmed page is encoded into a small check
word (stored out-of-band, the model of a spare area), and every read is
checked against it — a single flipped bit is corrected in place, a
two-bit burst is detected and reported as uncorrectable.

The whole page is treated as one codeword.  A 256-byte page needs 12
Hamming check bits plus one overall parity bit, 13 bits of overhead per
2048 data bits (~0.6%), in line with the SEC-DED overhead of real
NOR/NVM arrays.  The bit-parallel implementation works on the page as a
single big integer: one precomputed mask per check bit, one ``bit_count``
per parity — a handful of C-speed popcounts per read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

__all__ = ["SecDed", "secded_for"]


class SecDed:
    """SEC-DED codec for fixed-size pages.

    The codeword layout is the classic Hamming construction: bit
    positions 1..n, powers of two hold check bits, everything else holds
    data bits in order.  Only the data travels over the faulty read
    path in this model (check words live in the controller's sidecar
    store), so the decoder maps a nonzero syndrome straight back to a
    data-bit index.
    """

    def __init__(self, data_bytes: int) -> None:
        if data_bytes <= 0:
            raise ValueError("data_bytes must be positive")
        self.data_bytes = data_bytes
        m = data_bytes * 8
        r = 1
        while (1 << r) < m + r + 1:
            r += 1
        self.num_check_bits = r
        #: Codeword positions of data bits, LSB-first (skip powers of 2).
        data_positions = [pos for pos in range(1, m + r + 1)
                          if pos & (pos - 1)][:m]
        self._masks = []
        for j in range(r):
            mask = 0
            bit = 1 << j
            for i, pos in enumerate(data_positions):
                if pos & bit:
                    mask |= 1 << i
            self._masks.append(mask)
        self._databit_of_position = {pos: i
                                     for i, pos in enumerate(data_positions)}

    # ------------------------------------------------------------------

    def encode(self, data: bytes) -> int:
        """Check word for ``data``: r Hamming parities + overall parity."""
        if len(data) != self.data_bytes:
            raise ValueError(f"expected {self.data_bytes} bytes, "
                             f"got {len(data)}")
        x = int.from_bytes(data, "little")
        code = 0
        for j, mask in enumerate(self._masks):
            code |= ((x & mask).bit_count() & 1) << j
        overall = (x.bit_count() + code.bit_count()) & 1
        return code | (overall << self.num_check_bits)

    def check(self, data: bytes, code: int) -> Tuple[str, bytes, int]:
        """Verify (and correct) ``data`` against its stored check word.

        Returns ``(status, data, corrected_bits)`` where status is
        ``"ok"``, ``"corrected"`` (single-bit error fixed in the
        returned copy) or ``"uncorrectable"`` (even number of flips
        detected; the data is returned as received).
        """
        if len(data) != self.data_bytes:
            raise ValueError(f"expected {self.data_bytes} bytes, "
                             f"got {len(data)}")
        x = int.from_bytes(data, "little")
        syndrome = 0
        check = code & ((1 << self.num_check_bits) - 1)
        for j, mask in enumerate(self._masks):
            parity = (x & mask).bit_count() & 1
            if parity != ((check >> j) & 1):
                syndrome |= 1 << j
        stored_overall = (code >> self.num_check_bits) & 1
        overall = (x.bit_count() + check.bit_count()) & 1
        parity_mismatch = overall != stored_overall
        if syndrome == 0:
            if not parity_mismatch:
                return "ok", data, 0
            # Odd flip count that cancels the syndrome (3+ bits) — or a
            # flipped overall-parity bit, impossible here because check
            # words never traverse the faulty path.  Not correctable.
            return "uncorrectable", data, 0
        if parity_mismatch:
            bit = self._databit_of_position.get(syndrome)
            if bit is None or bit >= self.data_bytes * 8:
                # Syndrome points at a check-bit position: the data is
                # intact (cannot happen when only data bits flip).
                return "corrected", data, 0
            x ^= 1 << bit
            return ("corrected",
                    x.to_bytes(self.data_bytes, "little"), 1)
        # Nonzero syndrome with matching overall parity: an even number
        # of bits flipped.  SEC-DED detects but cannot correct this.
        return "uncorrectable", data, 0


@lru_cache(maxsize=8)
def secded_for(data_bytes: int) -> SecDed:
    """Shared codec instance per page size (mask setup is O(bits * r))."""
    return SecDed(data_bytes)
