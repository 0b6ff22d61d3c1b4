"""Backwards compatibility: a RAM-disk block device over eNVy memory."""

from .blockdev import BlockDevice, BlockDeviceError

__all__ = [
    "BlockDevice",
    "BlockDeviceError",
]
