"""Bimodal (hot/cold) write workload — the locality axis of Figure 8.

The paper's locality labels read "hot-data-fraction / hot-access-share":
"10/90 means that 90% of all accesses go to 10% of the data, while 10%
goes to the remaining 90%".  "50/50" is the uniform distribution.

The hot set is a contiguous range of logical pages starting at 0; which
pages are hot is irrelevant to the cleaner (only the page-to-segment map
matters, and initial placement shuffles pages across segments).
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

from .base import WriteWorkload, randbelow

__all__ = ["BimodalWorkload", "parse_locality"]


def parse_locality(label: str) -> Tuple[float, float]:
    """Parse "10/90" into (hot_data_fraction, hot_access_fraction).

    >>> parse_locality("10/90")
    (0.1, 0.9)
    >>> parse_locality("50/50")
    (0.5, 0.5)
    """
    match = re.fullmatch(r"(\d+(?:\.\d+)?)/(\d+(?:\.\d+)?)", label.strip())
    if not match:
        raise ValueError(f"locality label {label!r} is not 'X/Y'")
    data_pct, access_pct = float(match.group(1)), float(match.group(2))
    if not 0 < data_pct < 100 or not 0 < access_pct < 100:
        raise ValueError(f"locality percentages must be in (0, 100): {label}")
    return data_pct / 100.0, access_pct / 100.0


class BimodalWorkload(WriteWorkload):
    """Writes split between a hot set and the cold remainder."""

    def __init__(self, num_pages: int, hot_data_fraction: float = 0.1,
                 hot_access_fraction: float = 0.9,
                 seed: Optional[int] = None) -> None:
        super().__init__(num_pages, seed)
        if not 0.0 < hot_data_fraction < 1.0:
            raise ValueError("hot_data_fraction must be in (0, 1)")
        if not 0.0 < hot_access_fraction < 1.0:
            raise ValueError("hot_access_fraction must be in (0, 1)")
        self.hot_data_fraction = hot_data_fraction
        self.hot_access_fraction = hot_access_fraction
        self.hot_pages = max(1, int(num_pages * hot_data_fraction))
        if self.hot_pages >= num_pages:
            raise ValueError("hot set must leave at least one cold page")
        self.label = (f"{hot_data_fraction * 100:g}/"
                      f"{hot_access_fraction * 100:g}")

    @classmethod
    def from_label(cls, num_pages: int, label: str,
                   seed: Optional[int] = None) -> "WriteWorkload":
        """Build the workload for a Figure 8 locality label.

        "50/50" returns a :class:`UniformWorkload`, matching the paper's
        use of it as the uniform end of the axis.
        """
        data_fraction, access_fraction = parse_locality(label)
        if abs(data_fraction - 0.5) < 1e-9 and \
                abs(access_fraction - 0.5) < 1e-9:
            from .uniform import UniformWorkload
            workload = UniformWorkload(num_pages, seed)
            workload.label = "50/50"
            return workload
        return cls(num_pages, data_fraction, access_fraction, seed)

    def next_page(self) -> int:
        rng = self.rng
        hot_pages = self.hot_pages
        if rng.random() < self.hot_access_fraction:
            return randbelow(rng.getrandbits, hot_pages)
        return hot_pages + randbelow(rng.getrandbits,
                                     self.num_pages - hot_pages)
