"""Hardware atomic transaction support (Section 6).

"eNVy automatically copies all modified data from Flash to SRAM as part
of its copy-on-write mechanism.  The original data in Flash is not
destroyed, and it can be used to provide a free shadow copy.  An
application can roll back a transaction simply by copying data back from
Flash.  In order to implement this feature, the controller has to keep
track of the location of the shadow copies and protect them from being
cleaned."

:class:`TransactionManager` implements exactly that bookkeeping:

* On the first write to a page inside a transaction it records the
  page's pre-image location.  If the committed copy is still in Flash,
  the shadow is *free* — the invalidated Flash page keeps its bytes
  until its segment is erased (Section 2: superseded data stays
  readable).  If the committed copy was in the SRAM buffer, the bytes
  are snapshotted (SRAM-to-SRAM copy, one wide cycle per page).
* Shadows are protected from cleaning through the store's pre-erase
  hook: when the cleaner is about to erase a segment holding live
  shadows, the manager rescues their bytes into battery-backed SRAM
  first.  (The paper's controller would instead skip or pin the
  segment; rescuing is equivalent in behaviour and keeps the cleaner's
  victim choice unconstrained.)
* ``rollback`` writes the pre-images back through the normal write
  path; ``commit`` simply discards the bookkeeping — the new data is
  already persistent, which is the "free" in free shadow copy.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.controller import EnvyController

__all__ = ["TransactionManager", "Transaction", "TransactionError"]


class TransactionError(RuntimeError):
    """Raised for invalid transaction state changes."""


class _Shadow:
    """Pre-image of one page: a Flash location or rescued bytes."""

    __slots__ = ("flash_location", "data")

    def __init__(self, flash_location: Optional[Tuple[int, int]],
                 data: Optional[bytes]) -> None:
        self.flash_location = flash_location
        self.data = data


class Transaction:
    """One open atomic transaction over an eNVy controller."""

    def __init__(self, manager: "TransactionManager") -> None:
        self._manager = manager
        self._shadows: Dict[int, _Shadow] = {}
        self.state = "open"

    # ------------------------------------------------------------------

    def write(self, address: int, data: bytes) -> int:
        """Transactional write: shadows each page before first touch."""
        self._require_open()
        manager = self._manager
        page_bytes = manager.controller.config.page_bytes
        first = address // page_bytes
        last = (address + max(0, len(data) - 1)) // page_bytes
        for page in range(first, last + 1):
            if page not in self._shadows:
                self._shadows[page] = manager._capture_shadow(page)
        return manager.controller.write(address, data)

    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Make the transaction's writes permanent (discard shadows)."""
        self._require_open()
        self.state = "committed"
        self._manager._close(self)

    def rollback(self) -> None:
        """Restore every touched page to its pre-transaction image."""
        self._require_open()
        manager = self._manager
        page_bytes = manager.controller.config.page_bytes
        for page, shadow in self._shadows.items():
            data = manager._shadow_bytes(shadow)
            manager.controller.write(page * page_bytes, data)
        self.state = "rolled-back"
        self._manager._close(self)

    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self.state != "open":
            raise TransactionError(f"transaction is {self.state}")

    @property
    def pages_shadowed(self) -> int:
        return len(self._shadows)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.state == "open":
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        return False


class TransactionManager:
    """Tracks shadow copies and guards them against cleaning."""

    def __init__(self, controller: EnvyController) -> None:
        if not controller.store_data:
            raise ValueError("transactions need a data-bearing controller")
        self.controller = controller
        self._active: Optional[Transaction] = None
        self.rescued_pages = 0
        controller.store.pre_erase_hooks.append(self._before_erase)

    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Open a transaction (one at a time; use as a context manager)."""
        if self._active is not None:
            raise TransactionError(
                "a transaction is already open; eNVy's shadow mechanism "
                "tracks one transaction at a time")
        self._active = Transaction(self)
        return self._active

    def _close(self, txn: Transaction) -> None:
        if self._active is txn:
            self._active = None

    # ------------------------------------------------------------------
    # Shadow capture and rescue
    # ------------------------------------------------------------------

    def _capture_shadow(self, page: int) -> _Shadow:
        """Record the committed pre-image of ``page``.

        If the live copy is in Flash, the upcoming copy-on-write leaves
        it behind as a free shadow — only its location is stored.  If it
        is already in the SRAM buffer, the bytes are snapshotted now.
        """
        store = self.controller.store
        location = store.page_location[page]
        if location is not None and location != (-1, -1):
            return _Shadow(location, None)
        entry = self.controller.buffer.peek(page)
        data = bytes(entry.data) if entry is not None and \
            entry.data is not None else bytes(
                self.controller.config.page_bytes)
        return _Shadow(None, data)

    def _shadow_bytes(self, shadow: _Shadow) -> bytes:
        if shadow.data is not None:
            return shadow.data
        position, slot = shadow.flash_location
        store = self.controller.store
        phys = store.positions[position].phys
        data = store.array.read_page(phys, slot)
        if data is None:
            data = bytes(self.controller.config.page_bytes)
        return data

    def _before_erase(self, position: int, phys: int) -> None:
        """Rescue shadows living in a segment that is about to erase.

        Called by the store just before the bulk erase destroys the
        superseded copies; any shadow the open transaction still needs
        is copied into battery-backed SRAM (one wide read per page).
        """
        txn = self._active
        if txn is None:
            return
        store = self.controller.store
        for shadow in txn._shadows.values():
            if shadow.data is not None or shadow.flash_location is None:
                continue
            shadow_position, slot = shadow.flash_location
            if shadow_position != position:
                continue
            data = store.array.read_page(phys, slot)
            shadow.data = (bytes(data) if data is not None
                           else bytes(self.controller.config.page_bytes))
            shadow.flash_location = None
            self.rescued_pages += 1
