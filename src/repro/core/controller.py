"""The eNVy controller: a linear non-volatile memory over Flash.

This is the paper's primary contribution (Section 3): the host sees a
flat, byte-addressable, persistent address space and issues plain reads
and writes; the controller hides Flash's write-once, slow-program,
limited-endurance nature behind

* **copy-on-write** — a write to a Flash-resident page copies the page
  into battery-backed SRAM, applies the write there, and atomically
  repoints the page table (Section 3.1, Figure 3);
* **a FIFO write buffer** — repeated writes to a buffered page are plain
  SRAM updates; pages flush to Flash in the background once the buffer
  passes its threshold (Section 3.2);
* **page remapping** — a 6-byte-per-page table in battery-backed SRAM,
  fronted by an MMU translation cache (Sections 3.3, 5.1);
* **cleaning** — any of the Section 4 policies reclaims invalidated
  space segment-by-segment, keeping one segment always erased.

Every host operation returns the nanoseconds it took under the Figure 12
timing model, and all background work (flush programs, cleaner copies,
erases) is charged to the metrics' time breakdown so the Section 5.3
accounting can be reproduced.  The controller itself is synchronous —
callers that need overlap (the timed simulator of Figures 13-15) meter
out the background work against idle bus time themselves via
:meth:`background_work`.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..cleaning import CleaningPolicy, WearLeveler, make_policy
from ..faults import BadBlockTable, FaultInjector, secded_for
from ..flash.array import FlashArray
from ..obs.events import (CHECKPOINT_BEGIN, CHECKPOINT_COMMIT, EventBus,
                          FAULT_PREFIX, HOST_READ, HOST_WRITE, ObsEvent,
                          RETRY_ERASE, RETRY_PROGRAM, STORE_EVENT_KINDS,
                          WEAR_SWAP)
from ..sram.buffer import WriteBuffer
from ..sram.mmu import Mmu
from ..sram.pagetable import SRAM, Location, PageTable
from .binding import BoundStore
from .config import EnvyConfig
from .metrics import ControllerMetrics

__all__ = ["EnvyController", "EnvySystem"]

#: Bytes of the host word a page-granular read stands for.
_WORD = 8


class EnvyController:
    """Services host reads/writes and runs the Flash maintenance work.

    One method prices and accounts a host read: :meth:`read_run_ns`
    (range check, MMU translation, SRAM or Flash cost), ``count`` reads
    of one logical page at a time, timing only.  The shard executor
    calls it once per served row, the timed simulator once per run of
    same-page word reads.  :meth:`read_timed` (and :meth:`read`)
    assembles the bytes on top of it, pricing every page it touches
    there: applications, trace replay, and the timed simulator for a
    word that straddles a page boundary.

    The host boundary is observable through :attr:`access_listeners`.
    """

    def __init__(self, config: Optional[EnvyConfig] = None,
                 policy: Optional[CleaningPolicy] = None,
                 store_data: bool = True,
                 _array: Optional[FlashArray] = None,
                 _skip_format: bool = False) -> None:
        self.config = config or EnvyConfig.small()
        self.config.validate()
        cfg = self.config
        self.store_data = store_data
        if cfg.checkpoint_interval_flushes is not None and not store_data:
            raise ValueError(
                "checkpointing stores state in page payloads and needs "
                "store_data=True")
        if _array is not None:
            # Recovery path: rebuild the controller over a surviving
            # array instead of fabricating a fresh one.
            self.array = _array
        elif cfg.backend is None:
            self.array = FlashArray(
                cfg.flash, cfg.page_bytes, store_data=store_data,
                spare_segments=(1 + cfg.reserve_segments
                                + cfg.effective_checkpoint_segments))
        else:
            # Pluggable substrate (repro.backends): the spec names a
            # registered backend; the factory receives exactly the
            # geometry the direct path above passes, so backend="flash"
            # is byte-identical to backend=None.
            from ..backends import create_backend

            self.array = create_backend(
                cfg.backend, cfg, store_data=store_data,
                spare_segments=(1 + cfg.reserve_segments
                                + cfg.effective_checkpoint_segments))
        # --- fault-tolerance layer (repro.faults) ---------------------
        plan = cfg.fault_plan
        self.fault_injector = None
        if plan is not None and not plan.is_zero():
            self.fault_injector = FaultInjector(plan)
        ecc_on = (cfg.ecc_enabled if cfg.ecc_enabled is not None
                  else self.fault_injector is not None)
        self._ecc = secded_for(cfg.page_bytes) if ecc_on else None
        self._ecc_check_ns = cfg.ecc_check_ns if ecc_on else 0
        self.array.strict_endurance = cfg.strict_endurance
        # Factory bad-block marks (ONFI-style backends): physical
        # segments the medium declared unusable before the controller
        # ever saw it.  They force a bad-block table into existence.
        factory_bad = tuple(sorted(
            getattr(self.array, "factory_bad_segments", ()) or ()))
        self.bad_blocks = None
        if (self.fault_injector is not None or cfg.reserve_segments
                or factory_bad):
            self.bad_blocks = BadBlockTable()
        if (self.fault_injector is not None or self._ecc is not None
                or cfg.strict_endurance):
            self.array.attach_faults(
                injector=self.fault_injector, ecc=self._ecc,
                program_retries=cfg.program_retries,
                erase_retries=cfg.erase_retries,
                op_observer=self._on_fault_op)
        # Fault events always flow through the controller: the counters
        # and the event bus hear about every defence action regardless
        # of which layer armed the fault machinery.
        self.array.fault_listeners.append(self._on_fault_event)
        # --- observability spine (repro.obs) --------------------------
        #: Event bus every subsystem publishes to.  Dormant (one boolean
        #: check per instrumented operation) until something subscribes.
        self.events = EventBus()
        #: The attached :class:`~repro.obs.hub.ObservabilityHub`, if any
        #: (set by the hub itself); health_report folds in its views.
        self.observability = None
        #: Callbacks fired as ``(page, clean_copies_before)`` at the end
        #: of every :meth:`flush_one`, in registration order (per-tenant
        #: wear attribution subscribes for the length of a replay).
        self.flush_listeners = []
        #: Callbacks fired once per host call, in registration order:
        #: :meth:`write` as ``("w", address, payload, ns, 1)``,
        #: :meth:`read_timed` as ``("r", address, length, ns, 1)``,
        #: :meth:`read_run_ns` as ``("r", page start, 8, ns, count)`` —
        #: twice (head, then repeats) when the head cost more than a
        #: repeat, never ``count`` times.  A recording
        #: :class:`~repro.core.tracing.RunTrace` subscribes here.
        self.access_listeners = []
        self.page_table = PageTable(cfg.logical_pages,
                                    read_ns=cfg.sram.read_ns,
                                    write_ns=cfg.sram.write_ns)
        self.mmu = Mmu(self.page_table)
        self.buffer = WriteBuffer(cfg.buffer_pages, cfg.page_bytes,
                                  flush_threshold=cfg.flush_threshold)
        self.store = BoundStore(
            cfg.flash.num_segments, cfg.pages_per_segment,
            cfg.logical_pages, self.array,
            observer=self._on_store_event, bad_blocks=self.bad_blocks,
            checkpoint_segments=cfg.effective_checkpoint_segments,
            epoch_source=self.page_table.next_epoch)
        self.store.program_listeners.append(self._on_flush_program)
        self.store.preserve_flushed_copies = \
            cfg.checkpoint_interval_flushes is not None
        # Lazy OOB stamping: skip packing self-description records when
        # nothing will ever scan them (placement-only simulation).
        # Stamps share the program cycle, so metrics are unaffected.
        stamp = cfg.oob_stamping
        if stamp is None:
            stamp = (store_data
                     or cfg.checkpoint_interval_flushes is not None)
        self.store.stamp_oob = stamp
        self.policy = policy or make_policy(
            cfg.cleaning_policy,
            **({"partition_segments": cfg.partition_segments}
               if cfg.cleaning_policy == "hybrid" else {}))
        self.leveler = WearLeveler(cfg.wear_swap_cycles)
        self.metrics = ControllerMetrics()
        self._pending_work_ns = 0
        # Hot-path scalars: EnvyConfig derives these through property
        # chains on every access; the timed simulator calls read_timed
        # millions of times, so bind them once (the config is frozen).
        self._page_bytes = cfg.page_bytes
        self._size_bytes = cfg.logical_bytes
        self._num_pages = cfg.logical_pages
        self._bus_overhead_ns = cfg.bus_overhead_ns
        self._sram_write_ns = cfg.sram.write_ns
        # Through the backend's cost hook, not the config constant, so
        # a backend with its own timing (ONFI bus cycles, DRAM rates)
        # is charged correctly.  For the default FlashArray this is
        # exactly cfg.flash.read_ns (degradation is attached later and
        # was never reflected in this scalar).
        self._flash_read_ns = self.array.read_time_ns()
        # The two host-read costs on top of translation (read_run_ns).
        self._sram_access_ns = self._bus_overhead_ns + cfg.sram.read_ns
        self._flash_access_ns = (self._bus_overhead_ns + self._flash_read_ns
                                 + self._ecc_check_ns)
        # --- crash-consistent metadata (repro.core.checkpoint) --------
        self.checkpointer = None
        self._flushes_since_checkpoint = 0
        #: Report of the scan that rebuilt this controller, if any.
        self.last_recovery_report = None
        if cfg.checkpoint_interval_flushes is not None:
            from .checkpoint import CheckpointManager

            self.checkpointer = CheckpointManager(self)
        #: Block devices layered over this controller's medium (the
        #: ramdisk backend registers its device here); their operation
        #: counters are folded into health_report().
        self.block_devices = []
        device = getattr(self.array, "device", None)
        if device is not None and hasattr(device, "stats"):
            self.block_devices.append(device)
        if not _skip_format:
            if factory_bad:
                self._retire_factory_bad(factory_bad)
            self._format()
        self.policy.attach(self.store)

    # ------------------------------------------------------------------
    # Initial layout
    # ------------------------------------------------------------------

    def _format(self) -> None:
        """Assign every logical page an initial physical home.

        eNVy presents a fixed-size linear memory, so all pages exist from
        the start; a fresh page holds zeroes (its Flash cells are tracked
        but carry no payload until first written).  The layout matches
        the policy's assumption: sequential for greedy/FIFO, contiguous
        striping for the locality-aware policies.
        """
        if self.policy is not None and \
                self.policy.preferred_layout == "sequential":
            self.store.populate_sequential()
        else:
            self.store.populate_contiguous()
        for page in range(self.config.logical_pages):
            position, slot = self.store.page_location[page]
            self.page_table.update(page, Location.flash(position, slot))
        # Formatting is not measured work.
        self.metrics.reset()
        self.array.fault_stats.reset()
        self._pending_work_ns = 0

    def _retire_factory_bad(self, factory_bad) -> None:
        """Fold the medium's factory bad-block marks into the layout.

        Runs before :meth:`_format`, so no data has landed yet and
        retirement is pure bookkeeping: a bad segment inside the
        reserve pool just shrinks the pool; a bad segment holding a
        position, the spare, or a metadata slot swaps a reserve segment
        into its place — the same swap a grown-bad retirement performs
        at erase time, minus the data motion (there is none yet).
        """
        from ..cleaning.store import StoreError

        store = self.store
        swapped = False
        for phys in factory_bad:
            if phys in store.reserve_phys:
                store.reserve_phys.remove(phys)
                self.bad_blocks.mark_factory(phys)
                store.retired_phys.add(phys)
                continue
            replacement = self.bad_blocks.mark_factory(
                phys, need_replacement=True)
            if replacement is None:
                raise StoreError(
                    f"factory bad segment {phys} cannot be replaced: "
                    f"the reserve pool is exhausted (need "
                    f"reserve_segments > {len(factory_bad) - 1})")
            store.reserve_phys.remove(replacement)
            store.retired_phys.add(phys)
            if store.spare_phys == phys:
                store.spare_phys = replacement
            elif phys in store.metadata_phys:
                store.metadata_phys.discard(phys)
                store.metadata_phys.add(replacement)
            else:
                for pos in store.positions:
                    if pos.phys == phys:
                        pos.phys = replacement
                        break
                else:  # pragma: no cover - geometry invariant
                    raise StoreError(
                        f"factory bad segment {phys} is not in the "
                        f"layout")
            swapped = True
        if swapped:
            store._derived_version += 1
            store._active_key = None
            store._wear_key = None

    # ------------------------------------------------------------------
    # Store event hook: charge background work to the time breakdown
    # ------------------------------------------------------------------

    def _on_flush_program(self, page: int, position: int, slot: int,
                          epoch: int) -> None:
        # The OOB stamp and the epoch note share the program cycle.
        self.page_table.note_epoch(page, epoch)

    def _on_store_event(self, event: str, position: int, amount: int) -> None:
        # Timing comes from the array so wear degradation (Section 2),
        # when enabled, makes an aged segment genuinely slower.
        phys = self.store.positions[position].phys
        if event == "program":
            ns = amount * self.array.program_time_ns(phys)
            self.metrics.charge("flush", ns)
            self.metrics.flushes += amount
        elif event in ("clean_copy", "transfer", "rescue"):
            ns = amount * self.array.program_time_ns(phys)
            self.metrics.charge("clean", ns)
            self.metrics.clean_copies += amount
        elif event == "erase":
            ns = amount * self.array.erase_time_ns(phys)
            self.metrics.charge("erase", ns)
            self.metrics.erases += amount
        else:  # pragma: no cover - future event kinds
            return
        self._pending_work_ns += ns
        bus = self.events
        if bus.active:
            bus.emit_span(STORE_EVENT_KINDS[event], ns,
                          {"position": position, "phys": phys,
                           "pages": amount})

    # ------------------------------------------------------------------
    # Fault hooks: retries cost time, fault events update the counters
    # ------------------------------------------------------------------

    def _on_fault_op(self, kind: str, segment: int, count: int) -> None:
        """Charge repeated program/erase attempts to the time model.

        Called by the array once per retried operation; a retry costs a
        full extra program or erase cycle on the affected segment.
        """
        if kind == "retry_program":
            ns = count * self.array.program_time_ns(segment)
            self.metrics.program_retries += count
            event_kind = RETRY_PROGRAM
        elif kind == "retry_erase":
            ns = count * self.array.erase_time_ns(segment)
            self.metrics.erase_retries += count
            event_kind = RETRY_ERASE
        else:  # pragma: no cover - future retry kinds
            return
        self.metrics.charge("retry", ns)
        self._pending_work_ns += ns
        bus = self.events
        if bus.active:
            bus.emit_span(event_kind, ns, {"segment": segment})

    def _on_fault_event(self, event) -> None:
        if event.kind == "ecc_corrected":
            self.metrics.ecc_corrected += 1
        elif event.kind == "ecc_uncorrectable":
            self.metrics.ecc_uncorrectable += 1
        elif event.kind == "bad_block_retired":
            self.metrics.bad_blocks_retired += 1
        bus = self.events
        if bus.active:
            bus.mark(FAULT_PREFIX + event.kind,
                     {"segment": event.segment,
                      "op_index": event.op_index,
                      "detail": event.detail})

    def health_report(self) -> dict:
        """Device-health snapshot: fault, ECC and retirement counters.

        The dict is flat and JSON-serialisable; with the same config
        (including the fault plan's seed) and workload, two runs produce
        identical reports — the injector is deterministic.
        """
        stats = self.array.fault_stats
        report = {
            "fault_injection_active": self.fault_injector is not None,
            "ecc_enabled": self._ecc is not None,
            "strict_endurance": self.config.strict_endurance,
        }
        report.update(stats.as_dict())
        report.update({
            "active_segments": len(self.store.active_phys()),
            "retired_segments": sorted(self.store.retired_phys),
            "reserves_remaining": len(self.store.reserve_phys),
            "wear_overshoot_cycles": self.array.wear_stats().overshoot_cycles,
        })
        # --- recovery / checkpoint status -----------------------------
        ckpt = self.checkpointer
        report.update({
            "checkpointing_enabled": ckpt is not None and ckpt.enabled,
            "checkpoint_failure_reason": (ckpt.failure_reason
                                          if ckpt is not None else None),
            "checkpoints_written": (ckpt.checkpoints_written
                                    if ckpt is not None else 0),
            "last_checkpoint_id": ckpt.checkpoint_id if ckpt is not None
                                  else 0,
            "checkpoint_segments": sorted(self.store.metadata_phys),
            "rescued_copies": self.store.rescue_count,
        })
        recovery = self.last_recovery_report
        report.update({
            "recovered_from_flash": recovery is not None,
            "recovery_mode": recovery.mode if recovery else None,
            "recovery_pages_reconstructed": (recovery.pages_reconstructed
                                             if recovery else 0),
            "recovery_pages_scanned": (recovery.pages_scanned
                                       if recovery else 0),
            "recovery_scan_ns": recovery.scan_ns if recovery else 0,
            "recovery_checkpoint_id": (recovery.checkpoint_id
                                       if recovery else None),
        })
        # --- latency tails (repro.obs histograms) ---------------------
        metrics = self.metrics
        report.update({
            "read_latency_p50_ns": metrics.read_latency.p50,
            "read_latency_p99_ns": metrics.read_latency.p99,
            "write_latency_p50_ns": metrics.write_latency.p50,
            "write_latency_p99_ns": metrics.write_latency.p99,
        })
        # --- storage backend (repro.backends) -------------------------
        # Guarded so the default Flash path's report is byte-identical
        # to the pre-backend era: FlashArray has no backend_name, no
        # media_report, and registers no block devices.
        backend_name = getattr(self.array, "backend_name", None)
        if backend_name is not None:
            report["backend"] = backend_name
        media = getattr(self.array, "media_report", None)
        if media is not None:
            for key, value in media().items():
                report[f"backend_{key}"] = value
        for index, device in enumerate(self.block_devices):
            for key, value in device.stats().items():
                report[f"blockdev{index}_{key}"] = value
        # Latest time-series window, flattened, when a hub is attached.
        obs = self.observability
        if obs is not None:
            window = obs.latest_window()
            if window is not None:
                for key, value in window.as_dict(
                        include_arrays=False).items():
                    report[f"window_{key}"] = value
        return report

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Bytes of linear memory presented to the host."""
        return self._size_bytes

    def _check_range(self, address: int, length: int) -> None:
        if length < 0:
            raise ValueError("length cannot be negative")
        if address < 0 or address + length > self._size_bytes:
            raise IndexError(
                f"address range [{address}, {address + length}) outside "
                f"the {self._size_bytes}-byte array")

    # ------------------------------------------------------------------
    # Host reads
    # ------------------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        data, _ = self.read_timed(address, length)
        return data

    def read_run_ns(self, page: int, count: int = 1,
                    _heard: bool = True) -> Tuple[int, int]:
        """Cost and account ``count`` back-to-back host reads of ``page``.

        The one place a host read is priced (Section 5.1): bus overhead,
        a page-table read on an MMU miss, one SRAM or Flash(+ECC) cycle.
        Returns ``(first_ns, repeat_ns)``, the head's cost and each
        repeat's.  Nothing moves the page within a run, so every repeat
        hits the entry the head left (an unmapped page, never cached,
        misses again) and the repeats are accounted in bulk, as one
        ``HOST_READ`` span with ``data["count"]``.  Timing only: the
        cells are not sensed, so read faults leave the ECC counters
        alone (DESIGN.md "Host read path").  ``count`` is an ``int``
        (else ``TypeError``).  ``_heard=False`` is :meth:`read_timed`
        pricing its pages: that call fires the access listeners itself.
        """
        if count == 1 and count.__class__ is int \
                and 0 <= page < self._num_pages:
            # The served-row case: one translation call, nothing bound
            # that is not used.  Location.in_sram and metrics.charge are
            # spelled out to spare two calls per replayed read.
            location, ns = self.mmu.translate_timed(page)
            if location is not None and location[0] == SRAM:
                ns += self._sram_access_ns
            else:
                ns += self._flash_access_ns
            metrics = self.metrics
            metrics.reads += 1
            metrics.read_latency.record(ns)
            busy = metrics.busy_ns
            busy["read"] = busy.get("read", 0) + ns
            if self.events.active:
                self.events.emit_span(HOST_READ, ns, {"page": page})
            if _heard and self.access_listeners:
                self._hear_reads(page, ns, 1)
            return ns, ns
        if count.__class__ is not int:
            raise TypeError(f"a read run counts whole reads, not {count!r}")
        if count < 1:
            raise ValueError(f"a read run has at least one read, "
                             f"not {count}")
        if not 0 <= page < self._num_pages:
            raise IndexError(
                f"page {page} outside the {self._num_pages}-page array")
        mmu = self.mmu
        location, first_ns = mmu.translate_timed(page)
        if location is not None and location[0] == SRAM:
            repeat_ns = self._sram_access_ns
        else:
            repeat_ns = self._flash_access_ns
        first_ns += repeat_ns
        metrics = self.metrics
        metrics.reads += count
        metrics.read_latency.record(first_ns)
        rest = count - 1
        if location is None:
            # An unmapped page is never cached: each repeat misses again.
            mmu.misses += rest
            repeat_ns = first_ns
        else:
            # The head left the entry most recent: each repeat hits it.
            mmu.hits += rest
        metrics.read_latency.record_n(repeat_ns, rest)
        busy = metrics.busy_ns
        busy["read"] = busy.get("read", 0) + first_ns + repeat_ns * rest
        bus = self.events
        if bus.active:
            bus.emit_span(HOST_READ, first_ns, {"page": page})
            bus.emit_span(HOST_READ, repeat_ns * rest,
                          {"page": page, "count": rest})
        if _heard and self.access_listeners:
            if first_ns == repeat_ns:
                self._hear_reads(page, first_ns, count)
            else:
                self._hear_reads(page, first_ns, 1)
                self._hear_reads(page, repeat_ns, rest)
        return first_ns, repeat_ns

    def _hear_reads(self, page: int, ns: int, count: int) -> None:
        address = page * self._page_bytes
        for listener in self.access_listeners:
            listener("r", address, _WORD, ns, count)

    def read_timed(self, address: int, length: int) -> Tuple[bytes, int]:
        """Read ``length`` bytes; returns (data, nanoseconds).

        Data assembly over :meth:`read_run_ns`: every page touched is
        costed and accounted there, then its slice of the payload is
        fetched from the write buffer or the array.
        """
        if length < 0 or address < 0 \
                or address + length > self._size_bytes:
            self._check_range(address, length)
        page_bytes = self._page_bytes
        read_run_ns = self.read_run_ns
        peek = self.buffer.peek
        store_data = self.store_data
        pieces = []
        total_ns = 0
        page, page_offset = divmod(address, page_bytes)
        remaining = length
        while remaining > 0:
            chunk = remaining
            if chunk > page_bytes - page_offset:
                chunk = page_bytes - page_offset
            total_ns += read_run_ns(page, 1, False)[0]
            entry = peek(page)
            if entry is not None:
                payload = entry.data
            else:
                payload = (self.store.read_page_data(page)
                           if store_data else None)
            if payload is None:
                pieces.append(bytes(chunk))
            else:
                pieces.append(bytes(payload[page_offset:page_offset + chunk]))
            remaining -= chunk
            page += 1
            page_offset = 0
        data = b"".join(pieces)
        for listener in self.access_listeners:
            listener("r", address, length, total_ns, 1)
        return data, total_ns

    # ------------------------------------------------------------------
    # Host writes
    # ------------------------------------------------------------------

    def write(self, address: int, data: bytes) -> int:
        """Write ``data`` at ``address``; returns nanoseconds taken.

        A write to a buffered page is a plain SRAM update (~160 ns).  A
        write to a Flash-resident page triggers the copy-on-write of
        Figure 3: the page is copied to SRAM in one wide cycle while the
        page table is updated in parallel, then the write lands in SRAM.
        If the buffer is full the host stalls while a page is flushed —
        the latency cliff of Figure 15.
        """
        self._check_range(address, len(data))
        page_bytes = self._page_bytes
        total_ns = 0
        offset = address
        payload = bytes(data)
        view = memoryview(payload)
        consumed = 0
        bus = self.events
        while consumed < len(data):
            page, page_offset = divmod(offset, page_bytes)
            chunk = min(len(data) - consumed, page_bytes - page_offset)
            start_ns = bus.clock_ns
            access_ns = self._write_page(page, page_offset,
                                         view[consumed:consumed + chunk])
            self.metrics.writes += 1
            self.metrics.write_latency.record(access_ns)
            if bus.active:
                # A stalled write already advanced the clock through the
                # flush/clean/erase spans it waited on; the host span
                # starts at the access start and covers them.
                bus.emit(ObsEvent(HOST_WRITE, start_ns, access_ns,
                                  {"page": page}))
                bus.clock_ns = start_ns + access_ns
            total_ns += access_ns
            offset += chunk
            consumed += chunk
        for listener in self.access_listeners:
            listener("w", address, payload, total_ns, 1)
        return total_ns

    def _write_page(self, page: int, page_offset: int, chunk) -> int:
        location, translate_ns = self.mmu.translate_timed(page)
        access_ns = self._bus_overhead_ns + translate_ns
        if location is not None and location.in_sram:
            entry = self.buffer.peek(location.slot)
            if entry is not None and entry.data is not None:
                entry.data[page_offset:page_offset + len(chunk)] = chunk
            self.metrics.buffer_hits += 1
            access_ns += self._sram_write_ns
            self.metrics.charge("host-write", access_ns)
            return access_ns
        # Copy-on-write path.  A full buffer stalls the host while the
        # controller flushes (and possibly cleans) — that work happens
        # "now" from the host's point of view.  The stall time is
        # already charged to the flush/clean/erase buckets by the store
        # observer, so only the access itself lands in host-write below.
        stall_ns = 0
        if self.buffer.is_full:
            stall_ns = self.flush_one()
            access_ns += stall_ns
        page_data = None
        if self.store_data:
            old_data = self.store.read_page_data(page)
            page_data = (bytearray(old_data) if old_data is not None
                         else bytearray(self._page_bytes))
            page_data[page_offset:page_offset + len(chunk)] = chunk
        origin = self.store.buffer_page(page)
        entry = self.buffer.insert(page, page_data, origin)
        self.mmu.update(page, Location.sram(page))
        self.metrics.copy_on_writes += 1
        # One wide Flash read to copy the page + the SRAM write; the
        # page-table update happens in parallel with the transfer
        # (Section 5.1) and adds nothing.
        access_ns += self._flash_read_ns + self._sram_write_ns
        self.metrics.charge("host-write", access_ns - stall_ns)
        return access_ns

    # ------------------------------------------------------------------
    # Background maintenance
    # ------------------------------------------------------------------

    def flush_one(self) -> int:
        """Flush the buffer tail through the cleaning policy.

        Returns the nanoseconds of Flash work performed (program plus any
        cleaning and erasing it triggered).
        """
        entry = self.buffer.pop_tail()
        before = self._pending_work_ns
        clean_before = self.metrics.clean_copies
        page = entry.logical_page
        journal = self.store.journal
        if journal is not None:
            # The page leaves the FIFO now but is not durable until the
            # program commits; journal it for power-failure recovery.
            journal.note_flush(page, entry.origin)
        if self.store_data and entry.data is not None:
            self.store.stage_data(page, bytes(entry.data))
        self.policy.flush(page, entry.origin)
        location = self.store.page_location[page]
        self.mmu.update(page, Location.flash(location[0], location[1]))
        if journal is not None:
            journal.clear_flush()
        swaps_before = self.leveler.swap_count
        self.leveler.maybe_level(self.store)
        self.metrics.wear_swaps = self.leveler.swap_count
        if self.events.active and self.leveler.swap_count > swaps_before:
            self.events.mark(WEAR_SWAP,
                             {"swaps": self.leveler.swap_count
                              - swaps_before})
        if self.checkpointer is not None and self.checkpointer.enabled:
            self._flushes_since_checkpoint += 1
            if self._flushes_since_checkpoint >= \
                    self.config.checkpoint_interval_flushes:
                self.checkpoint_now()
        for listener in self.flush_listeners:
            listener(page, clean_before)
        return self._pending_work_ns - before

    def checkpoint_now(self) -> int:
        """Write a metadata checkpoint immediately; returns its ns cost.

        No-op (returning 0) when checkpointing is disabled or has shut
        itself off after a metadata-segment failure.
        """
        if self.checkpointer is None or not self.checkpointer.enabled:
            return 0
        bus = self.events
        if bus.active:
            bus.mark(CHECKPOINT_BEGIN)
        ns = self.checkpointer.write_checkpoint()
        self._flushes_since_checkpoint = 0
        if ns:
            self.metrics.charge("checkpoint", ns)
            self.metrics.checkpoints_written += 1
            self._pending_work_ns += ns
            if bus.active:
                bus.emit_span(CHECKPOINT_COMMIT, ns,
                              {"id": self.checkpointer.checkpoint_id,
                               "chunks":
                               self.checkpointer.last_chunk_count})
        return ns

    def background_work(self, budget_ns: int, overdraft_ns: int = 0) -> int:
        """Spend ``budget_ns`` of idle time on ``overdraft_ns`` of work
        in flight, then on flushes while over the threshold.

        The timed simulator and the service executors meter idle gaps
        here; the library API never requires it.  A flush is not split
        (Section 3.4's suspendable-but-not-abortable long operations).
        Returns the work done past the budget: the overdraft for the
        next gap when positive, minus the idle time left when not.
        """
        done = overdraft_ns
        while done < budget_ns and self.buffer.over_threshold:
            done += self.flush_one()
        return done - budget_ns

    def drain(self) -> int:
        """Flush everything (e.g. before an orderly shutdown)."""
        done = 0
        while len(self.buffer):
            done += self.flush_one()
        return done

    def prewarm(self, free_space_turnovers: float = 3.0,
                seed: int = 5) -> None:
        """Bring the Flash array to cleaning steady state, untimed.

        A freshly formatted array holds 20% erased space, so the cleaner
        would stay idle for the first few simulated seconds — far longer
        than an affordable timed warm-up.  This replays the flush
        traffic's page-level effect directly (uniform page overwrites:
        account pages dominate the real flush stream because the hot
        teller/branch pages coalesce in the buffer) until the free space
        has been written through several times, then resets the metrics.
        The one prewarm: the timed simulator and the service's shard
        builder both start from here.
        """
        store = self.store
        rng = random.Random(seed)
        total_free = sum(p.free_slots for p in store.positions)
        flushes = int(total_free * free_space_turnovers)
        num_pages = store.num_logical_pages
        buffer_page = store.buffer_page
        flush = self.policy.flush
        for _ in range(flushes):
            page = rng.randrange(num_pages)
            flush(page, buffer_page(page))
        # The buffer also idles at its threshold in steady state (the
        # controller only flushes while above it) — fill it so the run
        # starts with flush traffic flowing at the insert rate.
        page_bytes = self._page_bytes
        while len(self.buffer) < self.buffer.threshold_pages:
            page = rng.randrange(num_pages)
            if page not in self.buffer:
                self.write(page * page_bytes, b"\x00")
        self.mmu.flush()
        self.metrics.reset()

    # ------------------------------------------------------------------
    # Power failure / recovery (Section 3.2: battery-backed SRAM)
    # ------------------------------------------------------------------

    def power_cycle(self) -> None:
        """Simulate a power failure and recovery.

        Flash and battery-backed SRAM (page table, write buffer) retain
        their contents; the volatile MMU translation cache is lost and
        refills on demand.  Cleaning state lives in the store, which is
        persistent ("The state of the cleaning process is kept in
        persistent memory so the controller can recover quickly",
        Section 3.4).
        """
        self.buffer.power_cycle()
        self.mmu.flush()

    def check_consistency(self) -> None:
        """Verify page table, buffer, store and Flash agree (for tests)."""
        self.store.check_invariants()
        if self.store_data:
            self.store.verify_against_array()
        for page in range(self.config.logical_pages):
            table_loc = self.page_table.lookup(page)
            store_loc = self.store.page_location[page]
            if store_loc == (-1, -1):
                if not (table_loc is not None and table_loc.in_sram):
                    raise AssertionError(
                        f"page {page} buffered but table says {table_loc}")
                if page not in self.buffer:
                    raise AssertionError(f"page {page} missing from buffer")
            else:
                if table_loc is None or not table_loc.in_flash:
                    raise AssertionError(
                        f"page {page} in flash but table says {table_loc}")

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EnvyController({self.size_bytes // (1 << 20)} MiB over "
                f"{self.config.flash.num_segments} segments, "
                f"policy={self.policy.name})")


#: Friendlier alias used throughout the examples and docs.
EnvySystem = EnvyController
