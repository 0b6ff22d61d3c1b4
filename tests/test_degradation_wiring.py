"""The array's timing does not depend on wear.

The §2 wear-dependent timing curve lives in ``repro.flash.endurance``
for the endurance benchmark; the array itself charges datasheet times
however worn a segment is.
"""

from repro.core.config import FlashParams
from repro.flash import FlashArray


def small_array(**kwargs):
    params = FlashParams(chip_bytes=4096, chips_per_bank=4, num_banks=1,
                         erase_blocks_per_chip=4)
    return FlashArray(params, page_bytes=256, **kwargs)


class TestArrayDegradation:
    def test_disabled_by_default(self):
        array = small_array()
        for _ in range(100):
            array.erase_segment(0)
        assert array.program_time_ns(0) == array.params.program_ns
        assert array.erase_time_ns(0) == array.params.erase_ns
        assert array.read_time_ns(0) == array.params.read_ns
