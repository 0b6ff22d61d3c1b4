"""The storage-backend contract: one controller, many substrates.

eNVy's controller logic — copy-on-write remapping, FIFO write
buffering, segment cleaning, wear leveling, and the recovery scan — is
substrate-independent in the paper: nothing in Sections 3-4 depends on
the medium being the simulated Flash array beyond write-once pages,
bulk-erase segments, and per-operation timing.  This module names that
boundary.  :class:`StorageBackend` is the abstract contract consumed by
:class:`~repro.core.binding.BoundStore`,
:class:`~repro.core.controller.EnvyController`,
:func:`~repro.core.recovery.recover_from_flash`, and the chaos
harness's :class:`~repro.core.chaos.KillSwitch`.

The contract (all of it already honoured by
:class:`~repro.flash.array.FlashArray`, the reference implementation):

Geometry and addressing
    ``num_segments``, ``pages_per_segment``, ``page_bytes``,
    ``total_pages``, ``store_data``, ``segment(i)``,
    ``split_physical``/``join_physical``, ``bank_of``.

Page and segment operations
    ``program_page(segment, data, oob) -> (page, time_ns)`` — append at
    the segment's write pointer, stamping the out-of-band
    self-description record in the same cycle;
    ``read_page``/``read_oob`` — through the fault/ECC path when armed;
    ``invalidate_page`` — mark a superseded copy; ``erase_segment ->
    time_ns`` — bulk erase, raising
    :class:`~repro.flash.errors.BadBlockError` on permanent failure so
    the caller can retire the block.

Pre-operation hooks
    ``pre_op_hooks`` — a public list (``append`` to subscribe,
    ``remove`` to unsubscribe) whose callbacks run as ``(kind, segment,
    data, oob)``, in registration order, at the top of every
    ``program_page`` (kind ``"program"``) and ``erase_segment``
    (``"erase"``), before the operation validates, counts or touches
    anything: a hook that raises — the chaos harness's
    :class:`~repro.core.chaos.KillSwitch` cutting the power — must
    leave the medium, its counters and any write-through image exactly
    as they were.  Subclasses of ``FlashArray`` inherit this by doing
    their medium work after ``super()`` returns and by treating only
    :class:`~repro.flash.errors.FlashError` as a device failure.

Per-operation cost hooks
    ``read_time_ns``/``program_time_ns``/``erase_time_ns(segment)`` —
    the controller charges every host access and every piece of
    background work through these, so a backend changes the timing
    model simply by overriding them (the ONFI backend adds its
    command/address/data cycles here; the ramdisk backend substitutes
    DRAM constants from :mod:`repro.core.costmodel`).

Wear, faults, bad blocks
    ``wear_stats()``, ``attach_faults(...)``, ``fault_listeners``,
    ``emit_fault``, ``strict_endurance``, ``fault_stats``.

Optional backend extensions (discovered by ``getattr``, so the default
Flash path pays nothing):

* ``backend_name`` — short registry name, folded into
  ``health_report()``;
* ``factory_bad_segments`` — physical segments carrying factory
  bad-block marks; the controller retires them into the PR-1
  :class:`~repro.faults.badblocks.BadBlockTable` at format time;
* ``media_report()`` — flat dict of medium-level counters (bus cycles,
  device ops, file bytes), surfaced as ``backend_*`` keys in
  ``health_report()``;
* ``reopen()`` — return a fresh backend instance rebuilt from the
  persistent medium (the file-backed store uses this to prove restart
  survival: the reopened array must recover byte-identically).

Backends are free to subclass :class:`~repro.flash.array.FlashArray`
(all four registered implementations do) — that inherits the
write-once/bulk-erase state machine, the fault/ECC plumbing and the
wear bookkeeping, so a backend only overrides where its medium
genuinely differs.  A from-scratch implementation just has to satisfy
this ABC.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from ..flash.array import FlashArray, WearStats

__all__ = ["StorageBackend"]


class StorageBackend(abc.ABC):
    """Abstract contract every storage backend satisfies.

    ``isinstance(obj, StorageBackend)`` holds for
    :class:`~repro.flash.array.FlashArray` and every subclass — the
    array is registered below as the reference implementation.
    """

    # --- geometry ------------------------------------------------------
    num_segments: int
    pages_per_segment: int
    page_bytes: int
    store_data: bool
    #: Pre-operation hook list (see the module docstring).
    pre_op_hooks: list

    @abc.abstractmethod
    def segment(self, index: int):
        """The :class:`~repro.flash.segment.FlashSegment` at ``index``."""

    # --- operations ----------------------------------------------------

    @abc.abstractmethod
    def program_page(self, segment: int, data: Optional[bytes] = None,
                     oob: Optional[bytes] = None) -> Tuple[int, int]:
        """Program the next page of ``segment``; return (page, ns)."""

    @abc.abstractmethod
    def read_page(self, segment: int, page: int) -> Optional[bytes]:
        """Read one page's payload (None in stateless mode)."""

    @abc.abstractmethod
    def read_oob(self, segment: int, page: int) -> Optional[bytes]:
        """Read one page's spare-area self-description."""

    @abc.abstractmethod
    def invalidate_page(self, segment: int, page: int) -> None:
        """Mark a superseded copy INVALID (reclaimed only by erase)."""

    @abc.abstractmethod
    def erase_segment(self, segment: int) -> int:
        """Bulk-erase ``segment``; return the erase time in ns."""

    # --- per-op cost hooks ---------------------------------------------

    @abc.abstractmethod
    def read_time_ns(self, segment: int = 0) -> int: ...

    @abc.abstractmethod
    def program_time_ns(self, segment: int = 0) -> int: ...

    @abc.abstractmethod
    def erase_time_ns(self, segment: int = 0) -> int: ...

    # --- wear / faults -------------------------------------------------

    @abc.abstractmethod
    def wear_stats(self) -> WearStats: ...

#: FlashArray predates the ABC; register it as the reference
#: implementation rather than inserting an abc into its MRO (which
#: would add metaclass overhead to the hot simulation path).
StorageBackend.register(FlashArray)
