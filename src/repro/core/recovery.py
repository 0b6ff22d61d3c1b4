"""Crash-consistent cleaning and power-failure recovery (Section 3.4).

"The state of the cleaning process is kept in persistent memory so the
controller can recover quickly after a failure."

Cleaning is the one multi-step operation whose partial completion could
corrupt the array: it copies live pages to the spare segment, commits
the remap, and erases the old segment.  eNVy makes it crash-safe by
shadow paging — nothing about the old segment changes until the new copy
is complete — plus a small journal in battery-backed SRAM recording
which phase a clean is in:

* ``COPYING``  — survivor pages are streaming to the spare.  The page
  table still points at the old segment, so a crash loses nothing; the
  partially-written spare is simply re-erased and the clean rerun.
* ``COMMITTED`` — the remap is done; only the old segment's bulk erase
  is outstanding.  Recovery finishes the erase (the new copies are
  already the live ones).

:class:`~repro.core.chaos.KillSwitch` counts Flash operations through
the array's ``pre_op_hooks`` and raises :class:`SimulatedPowerFailure`
at the armed one; :func:`recover` brings the system back to a
consistent state from the journal, exactly as the controller's firmware
would at power-on.  The property tests crash at every reachable point
and verify no data is ever lost.

Beyond the paper: full recovery from Flash alone
------------------------------------------------

The journal path above assumes the battery held — SRAM (page table,
write buffer, journal) survived and only volatile caches were lost.
:func:`recover_from_flash` handles the total-loss case: given nothing
but the Flash array, it rebuilds the page table, segment layout,
cleaning state and counters from the out-of-band self-description
stamped on every page (:mod:`repro.flash.oob`) plus, when available,
the latest flash-resident checkpoint (:mod:`repro.core.checkpoint`).
Resolution rules:

* per logical page, the intact copy with the **highest epoch** wins;
  equal epochs (an uncommitted clean's shadow copies) prefer healthy
  segments, then the **lowest sequence number** — the shadow-paging
  original — so an uncommitted clean resolves to "never happened";
* a copy whose payload CRC mismatches its stamp (a torn program) is
  demoted in favour of the previous version; a slot whose OOB itself
  is unreadable carries no identity and is treated as garbage;
* each position's physical home is the claimant segment holding the
  most winners; losing claimants are erased back into the spare pool,
  and winners stranded outside their position's primary segment are
  re-queued through the write buffer like any interrupted flush.

With a checkpoint, segments whose erase count matches the captured one
skip straight to the captured slot records and only the tail programmed
after the capture is re-read ("roll-forward"); without one, every
programmed page in the array is scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Dict, List, Optional, Tuple

from ..cleaning.store import IN_BUFFER
from ..flash.errors import FlashError
from ..flash.oob import DATA, payload_crc, unpack_oob
from ..flash.segment import PageState
from .checkpoint import (COLUMNS, COUNTERS, PARTITION_STATE, POSITION_STATS,
                         REGISTERS, read_latest_checkpoint)
from .controller import EnvyController

__all__ = ["CleanPhase", "CleaningJournal", "SimulatedPowerFailure",
           "recover", "attach_journal", "RecoveryReport", "RecoveryError",
           "RecoveryMismatch", "recover_from_flash",
           "verify_against_scan"]


class SimulatedPowerFailure(Exception):
    """Raised by the kill switch at the armed Flash operation."""


class CleanPhase(Enum):
    IDLE = "idle"
    COPYING = "copying"
    COMMITTED = "committed"


class CleaningJournal:
    """The battery-backed record of in-flight maintenance work."""

    def __init__(self) -> None:
        self.phase = CleanPhase.IDLE
        self.position: Optional[int] = None
        self.old_phys: Optional[int] = None
        self.new_phys: Optional[int] = None
        #: The flush being serviced when the clean started: the buffer
        #: slot is logically still owned by this page until the flush's
        #: program commits, so recovery can re-queue it.
        self.flush_page: Optional[int] = None
        self.flush_origin: Optional[int] = None

    def begin(self, position: int, old_phys: int, new_phys: int) -> None:
        self.phase = CleanPhase.COPYING
        self.position = position
        self.old_phys = old_phys
        self.new_phys = new_phys

    def commit(self) -> None:
        self.phase = CleanPhase.COMMITTED

    def clear(self) -> None:
        self.phase = CleanPhase.IDLE
        self.position = None
        self.old_phys = None
        self.new_phys = None

    def note_flush(self, page: int, origin: int) -> None:
        self.flush_page = page
        self.flush_origin = origin

    def clear_flush(self) -> None:
        self.flush_page = None
        self.flush_origin = None


def attach_journal(system: EnvyController) -> CleaningJournal:
    """Enable journalled cleaning on a controller; returns the journal
    (created on first call).  From here on the store's ``clean`` and the
    controller's ``flush_one`` record their phase transitions in it."""
    store = system.store
    if store.journal is None:
        store.journal = CleaningJournal()
    return store.journal


def recover(system: EnvyController,
            journal: CleaningJournal,
            verify_scan: bool = False) -> CleanPhase:
    """Power-on recovery: repair any interrupted clean.

    Returns the phase the crash interrupted (IDLE when the system was
    quiescent).  After this returns, ``system.check_consistency()``
    holds and every logical page is intact.

    ``verify_scan`` additionally reconciles the journal-recovered state
    against the array's out-of-band self-description: every
    flash-resident page's recorded epoch must match the epoch a cold
    scan would resolve for it.  (Epochs, not locations, are compared —
    the scan's tie-breaks may legitimately place an equal-epoch copy
    elsewhere.)  Raises :class:`RecoveryMismatch` on divergence.
    """
    interrupted = journal.phase
    system.power_cycle()  # volatile state (MMU cache) is gone regardless
    store = system.store
    array = store.array
    if interrupted is CleanPhase.COPYING:
        # Shadow paging: the old segment and the page table are
        # untouched, so the partial copy is garbage.  Invalidate and
        # erase it; the clean will be redone on demand.
        spare = array.segment(journal.new_phys)
        for slot in range(spare.write_pointer):
            if spare.states[slot] is PageState.VALID:
                spare.invalidate_page(slot)
        if not spare.is_erased:
            store.erase_phys(journal.new_phys)
            store.phys_erase_counts[journal.new_phys] += 1
            store.erase_count += 1
    elif interrupted is CleanPhase.COMMITTED:
        # The remap committed; only the old segment's bulk erase was
        # outstanding.  (The store's erase counters were advanced at
        # commit time, so only the physical erase is replayed.)
        old = array.segment(journal.old_phys)
        if not old.is_erased:
            for slot in range(old.write_pointer):
                if old.states[slot] is PageState.VALID:
                    old.invalidate_page(slot)
            store.erase_phys(journal.old_phys)
    journal.clear()
    _requeue_orphans(system, journal)
    if verify_scan:
        verify_against_scan(system)
    return interrupted


def _requeue_orphans(system: EnvyController,
                     journal: CleaningJournal) -> None:
    """Re-queue pages whose relocation never committed.

    Two kinds of page are in flight during maintenance work: the flush
    the controller took off the FIFO (its only copy is the staged SRAM
    data), and pages the cleaner detached from one segment but had not
    yet programmed into another (their bytes sit in the controller's
    SRAM transfer buffer — ``_pending_data``).  Real hardware keeps both
    in battery-backed staging until the receiving program commits; the
    model re-inserts them into the write buffer, from where the normal
    flush path re-homes them.
    """
    store = system.store
    default_origin = (journal.flush_origin
                      if journal.flush_origin is not None else 0)
    # The interrupted flush, if any.
    candidates = []
    if journal.flush_page is not None:
        candidates.append((journal.flush_page, default_origin))
    # Pages detached by pop_live (location cleared, not buffered).
    for page, location in enumerate(store.page_location):
        if location is None and page not in system.buffer:
            candidates.append((page, default_origin))
    for page, origin in candidates:
        location = store.page_location[page]
        if location is not None and location != (-1, -1):
            continue  # it landed after all
        if page in system.buffer:
            continue
        data = store._pending_data.pop(page, None)
        if data is None and system.store_data:
            data = bytes(system.config.page_bytes)
        while system.buffer.is_full:
            system.flush_one()
        store.page_location[page] = (-1, -1)
        system.buffer.insert(
            page, bytearray(data) if data is not None else None, origin)
        from ..sram.pagetable import Location

        system.page_table.update(page, Location.sram(page))
    journal.clear_flush()


# ======================================================================
# Full recovery from Flash alone (no surviving SRAM)
# ======================================================================


class RecoveryError(Exception):
    """The array cannot be reconstructed (e.g. no healthy spare left)."""


class RecoveryMismatch(Exception):
    """Journal-recovered state disagrees with the array's OOB stamps."""


@dataclass
class RecoveryReport:
    """What a full-array recovery scan found and did."""

    #: "checkpoint" (rolled forward from a flash checkpoint) or
    #: "full-scan" (every programmed page re-read).
    mode: str
    #: Data segments read end to end (no usable checkpoint cache).
    segments_scanned: int = 0
    #: Page slots read through the OOB + payload path.
    pages_scanned: int = 0
    #: Id of the checkpoint rolled forward from (None on full scan).
    checkpoint_id: Optional[int] = None
    #: Metadata-segment pages read while locating the checkpoint.
    checkpoint_chunks_read: int = 0
    #: Scanned slots programmed after the checkpoint capture.
    rolled_forward_pages: int = 0
    #: Logical pages whose live copy was resolved in Flash.
    pages_reconstructed: int = 0
    #: Winners stranded outside their position's primary segment,
    #: re-queued through the write buffer.
    orphans_requeued: int = 0
    #: Extra copies of already-resolved pages (older versions and
    #: uncommitted clean shadows) that lost the epoch/seq tie-break.
    duplicates_resolved: int = 0
    #: Copies demoted because the payload CRC mismatched the stamp.
    torn_writes_demoted: int = 0
    #: Slots whose OOB region itself failed its CRC.
    oob_crc_failures: int = 0
    #: Programmed slots carrying no usable identity.
    garbage_slots: int = 0
    #: Segments erased to rebuild the spare/reserve pool.
    erases_replayed: int = 0
    #: Logical pages with no surviving copy, restored as zero pages.
    pages_zero_filled: int = 0
    #: Modelled time of the scan (reads, chunk reads, replayed erases).
    scan_ns: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


#: One parsed data slot: (logical_page, epoch, seq, position, payload_ok).
_SlotRec = Tuple[int, int, int, int, bool]


def _scan_segment(array, phys: int, cached: Optional[dict],
                  report: RecoveryReport, read_cost_ns: int,
                  retries: int = 3) -> Tuple[List[Optional[_SlotRec]], int]:
    """Parse one data segment's slots; returns (records, scan_ns).

    With a usable cache entry (same erase count as the checkpoint
    capture), the captured records stand in for the slots that existed
    at capture time and only the tail is re-read — the page and its OOB
    share the wide datapath, so each re-read slot costs one read cycle.

    A CRC failure (of the OOB stamp or the payload) is re-read up to
    ``retries`` times before the copy is demoted: read disturbs are
    transient, and a scan that trusted a single read would throw away
    perfectly intact pages.  Genuinely torn or garbage slots fail every
    attempt — their stored bits are wrong, not the read.
    """
    seg = array.segment(phys)
    records: List[Optional[_SlotRec]] = []
    ns = 0
    rolled = (cached is not None
              and cached["erase_count"] == seg.erase_count)
    if rolled:
        columns = zip(*(cached[name] for name in COLUMNS))
        for kind, page, epoch, seq, position in islice(columns,
                                                      seg.write_pointer):
            if kind != DATA:
                records.append(None)
                report.garbage_slots += 1
                continue
            records.append((page, epoch, seq, position, True))
    else:
        report.segments_scanned += 1
    for slot in range(len(records), seg.write_pointer):
        report.pages_scanned += 1
        if rolled:
            report.rolled_forward_pages += 1
        rec = None
        torn = None
        for _ in range(1 + retries):
            ns += read_cost_ns
            rec = unpack_oob(array.read_oob(phys, slot))
            if rec is None or not rec.is_data:
                rec = None
                continue
            data = array.read_page(phys, slot)
            torn = payload_crc(data) != rec.payload_crc
            if not torn:
                break
        if rec is None:
            records.append(None)
            report.garbage_slots += 1
            if seg.oob[slot] is not None:
                report.oob_crc_failures += 1
            continue
        if torn:
            report.torn_writes_demoted += 1
        records.append((rec.logical_page, rec.epoch, rec.seq,
                        rec.position, not torn))
    return records, ns


def _resolve(array, seg_records: Dict[int, List[Optional[_SlotRec]]],
             num_logical: int, num_positions: int,
             report: Optional[RecoveryReport]):
    """Resolve winners and position homes from parsed slot records.

    Returns ``(winners, primary_of)`` where ``winners`` maps each
    recoverable logical page to its ``(epoch, seq, phys, slot,
    position)`` and ``primary_of`` maps a physical segment to the
    position it is the primary home of.
    """
    candidates: Dict[int, list] = {}
    for phys, records in seg_records.items():
        bad = array.segment(phys).is_bad
        for slot, rec in enumerate(records):
            if rec is None or not rec[4]:
                continue
            page, epoch, seq, position, _ = rec
            if not (0 <= page < num_logical
                    and 0 <= position < num_positions):
                if report is not None:
                    report.garbage_slots += 1
                continue
            candidates.setdefault(page, []).append(
                (epoch, bad, seq, phys, slot, position))
    winners: Dict[int, Tuple[int, int, int, int, int]] = {}
    for page, cands in candidates.items():
        # Highest epoch; then healthy over bad; then the shadow-paging
        # original (lowest seq) so uncommitted cleans roll back.
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))
        epoch, _, seq, phys, slot, position = cands[0]
        winners[page] = (epoch, seq, phys, slot, position)
        if report is not None:
            report.duplicates_resolved += len(cands) - 1
    # --- which physical segment is each position's primary home? ------
    claimants: Dict[int, list] = {}
    winner_slots: Dict[int, set] = {}
    for _, (e, s, phys, slot, pos) in winners.items():
        winner_slots.setdefault(phys, set()).add(slot)
    for phys, records in seg_records.items():
        if array.segment(phys).is_bad:
            continue  # a retired segment can never be a live home
        parsed = [r for r in records if r is not None]
        if not parsed:
            continue
        claims = [r[3] for r in parsed
                  if 0 <= r[3] < num_positions]
        if not claims:
            continue
        claim = max(set(claims), key=lambda p: (claims.count(p), -p))
        min_seq = min(r[2] for r in parsed)
        claimants.setdefault(claim, []).append(
            (len(winner_slots.get(phys, ())), min_seq, phys))
    primary_of: Dict[int, int] = {}
    for position, cands in claimants.items():
        cands.sort(key=lambda c: (-c[0], c[1]))
        primary_of[cands[0][2]] = position
    return winners, primary_of


def recover_from_flash(array, config, policy=None,
                       store_data: Optional[bool] = None,
                       use_checkpoint: bool = True):
    """Rebuild a whole controller from the Flash array alone.

    The battery is assumed dead: no page table, no write buffer, no
    journal.  Returns ``(controller, report)``; the controller passes
    ``check_consistency()`` and holds, for every logical page, the
    newest copy whose program completed (torn and corrupted copies
    demote to their predecessors).  Pages whose every copy is lost come
    back zero-filled, and winners stranded outside their position's
    primary segment are re-flushed through the write buffer before this
    returns, so the recovered state is entirely flash-resident.

    ``use_checkpoint=False`` forces a full scan even when a checkpoint
    is present (the benchmark uses this to measure the cadence/scan
    trade-off).
    """
    # The dead controller's fault subscription goes with it.
    array.fault_listeners.clear()
    cfg = config
    if store_data is None:
        store_data = array.store_data
    num_positions = cfg.flash.num_segments
    num_logical = cfg.logical_pages
    ckpt_segments = cfg.effective_checkpoint_segments
    metadata_phys = set(range(array.num_segments - ckpt_segments,
                              array.num_segments))
    plan = cfg.fault_plan
    ecc_on = (cfg.ecc_enabled if cfg.ecc_enabled is not None
              else plan is not None and not plan.is_zero())
    read_cost_ns = array.read_time_ns() + (cfg.ecc_check_ns if ecc_on
                                           else 0)
    # --- 1. latest checkpoint, if any ---------------------------------
    state = None
    chunks_read = 0
    if use_checkpoint and ckpt_segments:
        state, chunks_read, _ = read_latest_checkpoint(
            array, metadata_phys)
    report = RecoveryReport(
        mode="checkpoint" if state is not None else "full-scan",
        checkpoint_id=state["checkpoint_id"] if state else None,
        checkpoint_chunks_read=chunks_read)
    scan_ns = chunks_read * array.read_time_ns()
    # --- 2. parse every data segment ----------------------------------
    seg_records: Dict[int, List[Optional[_SlotRec]]] = {}
    for phys in range(array.num_segments):
        if phys in metadata_phys:
            continue
        cached = state["segments"][phys] if state is not None else None
        records, ns = _scan_segment(array, phys, cached, report,
                                    read_cost_ns,
                                    retries=cfg.program_retries)
        seg_records[phys] = records
        scan_ns += ns
    # --- 3. resolve winners and position homes ------------------------
    winners, primary_of = _resolve(array, seg_records, num_logical,
                                   num_positions, report)
    report.pages_reconstructed = len(winners)
    # --- 4. classify winners; read stranded data before any erase -----
    mapped: Dict[int, Tuple[int, int, int]] = {}   # page -> (pos, slot, epoch)
    orphans: List[Tuple[int, Optional[bytes], int, int]] = []
    for page, (epoch, seq, phys, slot, position) in winners.items():
        if primary_of.get(phys) == position:
            mapped[page] = (position, slot, epoch)
        else:
            data = array.read_page(phys, slot) if store_data else None
            scan_ns += array.read_time_ns()
            orphans.append((page, data, position, epoch))
    orphans.sort(key=lambda o: o[0])
    report.orphans_requeued = len(orphans)
    # --- 5. erase garbage segments, rebuild states, pick the pool -----
    retired = {phys for phys in range(array.num_segments)
               if array.segment(phys).is_bad}
    for phys in list(seg_records):
        seg = array.segment(phys)
        if phys in primary_of or phys in retired or seg.is_erased:
            continue
        seg.rebuild_states(set())  # every slot is dead; clear the marks
        try:
            scan_ns += array.erase_segment(phys)
            report.erases_replayed += 1
        except FlashError:
            retired.add(phys)
    for phys, position in primary_of.items():
        live = {slot for page, (pos, slot, _) in mapped.items()
                if pos == position}
        array.segment(phys).rebuild_states(live)
    for phys in retired:
        if phys not in metadata_phys and phys not in primary_of:
            array.segment(phys).rebuild_states(set())
    leftovers = [phys for phys in range(array.num_segments)
                 if phys not in metadata_phys and phys not in retired
                 and phys not in primary_of]
    unclaimed = [p for p in range(num_positions)
                 if p not in primary_of.values()]
    for position in unclaimed:
        home = next((phys for phys in leftovers
                     if array.segment(phys).is_erased), None)
        if home is None:
            raise RecoveryError(
                f"no erased segment left to home position {position}")
        leftovers.remove(home)
        primary_of[home] = position
    spare = None
    for phys in leftovers:
        if array.segment(phys).is_erased and (
                spare is None or array.segment(phys).erase_count
                > array.segment(spare).erase_count):
            spare = phys
    if spare is None:
        raise RecoveryError("no erased segment left for the spare")
    reserves = sorted(phys for phys in leftovers if phys != spare)
    # --- 6. build the controller over the surviving array -------------
    ctrl = EnvyController(cfg, policy, store_data, _array=array,
                          _skip_format=True)
    store = ctrl.store
    position_phys = [None] * num_positions
    position_slots: List[List[int]] = [[] for _ in range(num_positions)]
    for phys, position in primary_of.items():
        position_phys[position] = phys
        # Dead and unreadable slots keep a sentinel entry so the slot
        # run mirrors the physical write pointer exactly.
        position_slots[position] = [
            rec[0] if rec is not None else 0
            for rec in seg_records.get(phys, ())]
    page_location: List[Optional[Tuple[int, int]]] = [None] * num_logical
    for page, (position, slot, _) in mapped.items():
        page_location[page] = (position, slot)
    zero_filled = []
    for page in range(num_logical):
        if page not in winners:
            zero_filled.append(page)
            page_location[page] = IN_BUFFER
    for page, _, _, _ in orphans:
        page_location[page] = IN_BUFFER
    report.pages_zero_filled = len(zero_filled)
    store.restore_layout(position_slots, position_phys, page_location,
                         spare, retired, reserves,
                         [array.segment(phys).erase_count
                          for phys in range(array.num_segments)])
    if ctrl.bad_blocks is not None:
        ctrl.bad_blocks.reserve = list(reserves)
        for phys in sorted(retired):
            ctrl.bad_blocks.retired.setdefault(phys, "recovered")
    # --- 7. counters, epochs, page table ------------------------------
    max_epoch = max_seq = 0
    for records in seg_records.values():
        for rec in records:
            if rec is not None:
                max_epoch = max(max_epoch, rec[1])
                max_seq = max(max_seq, rec[2])
    ctrl.page_table.write_epoch = max_epoch + 1
    store.seq_counter = max_seq + 1
    if state is not None:
        ctrl.page_table.write_epoch = max(ctrl.page_table.write_epoch,
                                          state["write_epoch"])
        store.seq_counter = max(store.seq_counter, state["seq_counter"])
    from ..sram.pagetable import Location

    for page, (position, slot, epoch) in mapped.items():
        store.page_epochs[page] = epoch
        ctrl.page_table.update(page, Location.flash(position, slot),
                               epoch=epoch)
    if state is not None:
        _restore_history(ctrl, state)
    # --- 8. re-flush stranded winners and lost pages ------------------
    for page, data, origin, _ in orphans + [(page, None, 0, 0)
                                            for page in zero_filled]:
        while ctrl.buffer.is_full:
            ctrl.flush_one()
        ctrl.buffer.insert(page, bytearray(data) if data is not None
                           else (bytearray(cfg.page_bytes) if store_data
                                 else None), origin)
        ctrl.page_table.update(page, Location.sram(page))
    ctrl.drain()
    ctrl.mmu.flush()
    report.scan_ns = scan_ns
    ctrl.metrics.reset()
    ctrl.metrics.charge("recovery", scan_ns)
    ctrl.last_recovery_report = report
    return ctrl, report


def _restore_history(ctrl, state: dict) -> None:
    """Install a record's statistics — state a scan cannot see."""
    store = ctrl.store
    for name in COUNTERS:
        setattr(store, name, state["counters"][name])
    for position, saved in zip(store.positions, state["positions"]):
        for name in POSITION_STATS:
            setattr(position, name, saved[name])
    policy, saved_policy = ctrl.policy, state["policy"]
    if saved_policy["name"] == policy.name:
        for part, saved in zip(getattr(policy, "partitions", ()),
                               saved_policy["partitions"]):
            for name in PARTITION_STATE:
                setattr(part, name, saved[name])
        for name, value in zip(REGISTERS, saved_policy["registers"]):
            if hasattr(policy, name):
                setattr(policy, name, value)
    ctrl.leveler.swap_count = state["leveler"]["swap_count"]
    ctrl.leveler._last_swap_erase_count = state["leveler"]["last_swap"]
    if ctrl.checkpointer is not None:
        ctrl.checkpointer.checkpoint_id = state["checkpoint_id"]


def verify_against_scan(system: EnvyController) -> None:
    """Reconcile a journal-recovered system with its OOB stamps.

    Re-derives each page's winning epoch straight from the stored OOB
    images (model introspection — no fault-path reads, no time charged)
    and checks that every flash-resident page's recorded epoch matches.
    Raises :class:`RecoveryMismatch` on any divergence.
    """
    store = system.store
    array = store.array
    cfg = system.config
    seg_records: Dict[int, List[Optional[_SlotRec]]] = {}
    for phys in range(array.num_segments):
        if phys in store.metadata_phys:
            continue
        seg = array.segment(phys)
        records: List[Optional[_SlotRec]] = []
        for slot in range(seg.write_pointer):
            rec = unpack_oob(seg.oob[slot])
            if rec is None or not rec.is_data:
                records.append(None)
                continue
            ok = True
            if store.stamp_oob and array.store_data:
                ok = payload_crc(seg.data[slot]) == rec.payload_crc
            records.append((rec.logical_page, rec.epoch, rec.seq,
                            rec.position, ok))
        seg_records[phys] = records
    winners, _ = _resolve(array, seg_records, cfg.logical_pages,
                          cfg.flash.num_segments, None)
    for page, loc in enumerate(store.page_location):
        if loc is None or loc == IN_BUFFER:
            continue
        recorded = store.page_epochs[page]
        if not recorded:
            continue  # pre-OOB layout (formatting, stamping disabled)
        won = winners.get(page)
        if won is None:
            raise RecoveryMismatch(
                f"page {page} is mapped to flash but no intact copy "
                f"resolves from the OOB scan")
        if won[0] != recorded:
            raise RecoveryMismatch(
                f"page {page}: scan resolves epoch {won[0]} but the "
                f"page table records epoch {recorded}")
