"""The complete eNVy Flash array: banks of chips, viewed as segments.

The array is the unit the controller and cleaner operate on.  It exposes

* page-granularity program / read / invalidate / erase operations with
  Flash's write-once, bulk-erase semantics enforced by
  :class:`~repro.flash.segment.FlashSegment`,
* the timing parameters of Figure 12 (100 ns reads, 4 us programs, 50 ms
  erases) including optional wear degradation, and
* wear statistics (per-segment program/erase cycles, spread, endurance
  headroom) used by the wear-leveling policy of Section 4.3 and the
  lifetime model of Section 5.5.

Physical pages are addressed either by ``(segment, page)`` pairs or by a
flat physical page number ``segment * pages_per_segment + page``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.config import FlashParams
from ..faults.plan import FaultEvent, FaultStats
from .errors import (AddressError, BadBlockError, EnduranceExceeded,
                     TransientProgramError)
from .segment import FlashSegment

__all__ = ["FlashArray", "WearStats"]


class WearStats:
    """Snapshot of program/erase wear across the array.

    The aggregates are computed once at construction — a WearStats is a
    snapshot, so repeated property access must not rescan the count
    lists (they used to, making ``wear_stats().spread`` in a loop
    quadratic).
    """

    __slots__ = ("erase_counts", "program_counts", "endurance_cycles",
                 "_min_erases", "_max_erases", "_total_erases",
                 "_total_programs", "_overshoot_cycles")

    def __init__(self, erase_counts: List[int], program_counts: List[int],
                 endurance_cycles: int) -> None:
        self.erase_counts = erase_counts
        self.program_counts = program_counts
        self.endurance_cycles = endurance_cycles
        self._min_erases = min(erase_counts)
        self._max_erases = max(erase_counts)
        self._total_erases = sum(erase_counts)
        self._total_programs = sum(program_counts)
        self._overshoot_cycles = sum(
            count - endurance_cycles for count in erase_counts
            if count > endurance_cycles)

    @property
    def spread(self) -> int:
        """Cycle gap between the most- and least-worn segments.

        Section 4.3 triggers a leveling swap when this exceeds 100.
        """
        return self._max_erases - self._min_erases

    @property
    def total_erases(self) -> int:
        return self._total_erases

    @property
    def total_programs(self) -> int:
        return self._total_programs

    @property
    def remaining_fraction(self) -> float:
        """Fraction of rated endurance left on the most-worn segment."""
        if self.endurance_cycles <= 0:
            return 0.0
        used = self._max_erases / self.endurance_cycles
        return max(0.0, 1.0 - used)

    @property
    def overshoot_cycles(self) -> int:
        """Erase cycles consumed beyond the rated endurance (Section 2:
        recorded, not fatal, unless ``strict_endurance`` is set)."""
        return self._overshoot_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WearStats(erases {self._min_erases}..{self._max_erases}, "
                f"spread={self.spread})")


class FlashArray:
    """A segment-addressed model of the whole Flash array."""

    def __init__(self, params: Optional[FlashParams] = None,
                 page_bytes: int = 256, store_data: bool = True,
                 spare_segments: int = 0) -> None:
        """``spare_segments`` adds segments beyond the nominal geometry.

        The controller models the always-erased cleaning target
        (Section 3.4) as one extra segment so that the data segments can
        be partitioned exactly; the capacity difference versus floating
        the spare inside the nominal array is under 1% at paper scale.
        """
        self.params = params or FlashParams()
        self.params.validate()
        if self.params.segment_bytes % page_bytes:
            raise ValueError("segment size must be a multiple of page size")
        if spare_segments < 0:
            raise ValueError("spare_segments cannot be negative")
        self.page_bytes = page_bytes
        self.pages_per_segment = self.params.segment_bytes // page_bytes
        self.num_segments = self.params.num_segments + spare_segments
        self.store_data = store_data
        self.segments: List[FlashSegment] = [
            FlashSegment(i, self.pages_per_segment, page_bytes,
                         store_data=store_data)
            for i in range(self.num_segments)
        ]
        # --- fault-tolerance state (inert until attach_faults) --------
        #: Counters for injected faults and the defences that fired.
        self.fault_stats = FaultStats()
        #: Callbacks receiving every :class:`FaultEvent` (tracing).
        self.fault_listeners: List = []
        #: Callbacks fired as ``(kind, segment, data, oob)`` at the top
        #: of every :meth:`program_page` (``"program"``) and
        #: :meth:`erase_segment` (``"erase"``, no data or oob), in
        #: registration order, before anything is checked or touched: a
        #: hook that raises leaves the medium exactly as it was.
        #: ``append`` to subscribe, ``remove`` to unsubscribe.
        self.pre_op_hooks: List = []
        #: Raise :class:`EnduranceExceeded` past rated cycles instead of
        #: recording the overshoot.
        self.strict_endurance = False
        self._fault_injector = None
        self._ecc = None
        #: Stored check words, segment -> {page: code} (the model of the
        #: out-of-band spare area real parts reserve for ECC).
        self._ecc_codes: dict = {}
        self._program_retries = 3
        self._erase_retries = 3
        #: Observer for fault-driven extra work: (kind, segment, count)
        #: with kind "retry_program" / "retry_erase"; the controller
        #: charges the repeated operation times through its cost model.
        self._op_observer = None
        self._fault_event_count = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @property
    def total_pages(self) -> int:
        return self.num_segments * self.pages_per_segment

    def segment(self, index: int) -> FlashSegment:
        if not 0 <= index < self.num_segments:
            raise AddressError(f"segment {index} out of range "
                               f"(array has {self.num_segments})")
        return self.segments[index]

    def split_physical(self, physical_page: int) -> Tuple[int, int]:
        """Decompose a flat physical page number into (segment, page)."""
        if not 0 <= physical_page < self.total_pages:
            raise AddressError(f"physical page {physical_page} out of range")
        return divmod(physical_page, self.pages_per_segment)

    def join_physical(self, segment: int, page: int) -> int:
        """Compose (segment, page) into a flat physical page number."""
        if not 0 <= segment < self.num_segments:
            raise AddressError(f"segment {segment} out of range")
        if not 0 <= page < self.pages_per_segment:
            raise AddressError(f"page {page} out of range")
        return segment * self.pages_per_segment + page

    def bank_of(self, segment: int) -> int:
        """Bank that ``segment`` physically resides in.

        Segments are striped across banks in block order: bank *b* holds
        segments ``b * segments_per_bank .. (b+1) * segments_per_bank - 1``.
        Needed by the Section 6 extension that overlaps operations on
        different banks.
        """
        if not 0 <= segment < self.num_segments:
            raise AddressError(f"segment {segment} out of range")
        return segment // self.params.segments_per_bank

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------

    def attach_faults(self, injector=None, ecc=None,
                      program_retries: int = 3, erase_retries: int = 3,
                      op_observer=None) -> None:
        """Arm fault injection and/or the controller-side defences.

        ``injector`` is a :class:`~repro.faults.plan.FaultInjector` (or
        None for a fault-free device with ECC still active); ``ecc`` a
        :class:`~repro.faults.ecc.SecDed` codec matching the page size.
        Retry budgets bound the program-verify and erase-retry loops;
        ``op_observer(kind, segment, count)`` hears about every repeated
        operation so its time can be charged to the cost model.  The
        fault-free fast paths are untouched when nothing is attached.
        """
        if program_retries < 0 or erase_retries < 0:
            raise ValueError("retry budgets cannot be negative")
        self._fault_injector = injector if (injector is not None
                                            and injector.active) else None
        self._ecc = ecc
        self._program_retries = program_retries
        self._erase_retries = erase_retries
        self._op_observer = op_observer

    @property
    def fault_injector(self):
        return self._fault_injector

    def emit_fault(self, kind: str, segment: int, detail: str = "") -> None:
        """Publish a :class:`FaultEvent` to every registered listener."""
        self._fault_event_count += 1
        if not self.fault_listeners:
            return
        event = FaultEvent(kind, segment, self._fault_event_count, detail)
        for listener in self.fault_listeners:
            listener(event)

    # ------------------------------------------------------------------
    # Operations (delegate to segments, return timing)
    # ------------------------------------------------------------------

    def program_page(self, segment: int, data: Optional[bytes] = None,
                     oob: Optional[bytes] = None) -> Tuple[int, int]:
        """Program the next page of ``segment``; return (page, time_ns).

        With a fault injector attached this is program-*verify*: a
        transiently failed attempt leaves the cells untouched and is
        retried (each retry re-consuming a program time via the op
        observer) up to the bounded retry budget, after which
        :class:`TransientProgramError` escapes to the caller.
        """
        for hook in self.pre_op_hooks:
            hook("program", segment, data, oob)
        seg = self.segment(segment)
        injector = self._fault_injector
        if injector is not None:
            failures = 0
            while injector.program_fails(segment):
                failures += 1
                self.fault_stats.program_retries += 1
                self.emit_fault("transient_program_failure", segment)
                if self._op_observer is not None:
                    self._op_observer("retry_program", segment, 1)
                if failures > self._program_retries:
                    self.fault_stats.program_retry_exhausted += 1
                    raise TransientProgramError(
                        f"segment {segment}: program failed verify "
                        f"{failures} times (budget "
                        f"{self._program_retries})")
        page = seg.program_page(data, oob)
        if self._ecc is not None and data is not None:
            self._ecc_codes.setdefault(segment, {})[page] = \
                self._ecc.encode(bytes(data))
        return page, self.program_time_ns(segment)

    def read_page(self, segment: int, page: int) -> Optional[bytes]:
        """Read one page, through the fault and ECC paths when armed.

        Injected read disturbs corrupt only the returned copy (the
        cells are unharmed, matching transient flips on a real read
        path).  With ECC attached, a single flipped bit is corrected
        and counted; multi-bit corruption is detected, counted as
        uncorrectable, and returned as-is — the caller sees exactly
        what degraded hardware would deliver.
        """
        data = self.segment(segment).read_page(page)
        if data is None:
            return data
        injector = self._fault_injector
        flips = 0
        if injector is not None:
            data, flips = injector.corrupt_read(data, segment)
            if flips:
                self.fault_stats.read_bit_flips += flips
                self.emit_fault("read_bit_flip", segment,
                                f"page={page} bits={flips}")
        if self._ecc is not None:
            code = self._ecc_codes.get(segment, {}).get(page)
            if code is not None:
                status, data, fixed = self._ecc.check(data, code)
                if status == "corrected":
                    self.fault_stats.ecc_corrected_reads += 1
                    self.fault_stats.ecc_corrected_bits += fixed
                    self.emit_fault("ecc_corrected", segment,
                                    f"page={page}")
                elif status == "uncorrectable":
                    self.fault_stats.ecc_uncorrectable_reads += 1
                    self.emit_fault("ecc_uncorrectable", segment,
                                    f"page={page}")
        elif flips:
            self.fault_stats.silent_corrupt_reads += 1
        return data

    def read_oob(self, segment: int, page: int) -> Optional[bytes]:
        """Read one page's spare-area bytes through the fault path.

        The OOB region sits in the same cells as the data, so read
        disturbs afflict it too; with an injector attached, flips are
        drawn from a dedicated ``oob`` stream (the data stream's draws
        are untouched, keeping fault schedules stable whether or not a
        scan happens).  The OOB carries its own CRC rather than ECC: a
        corrupted stamp demotes the copy, it is never trusted corrected.
        """
        raw = self.segment(segment).read_oob(page)
        if raw is None:
            return None
        injector = self._fault_injector
        if injector is not None:
            raw, flips = injector.corrupt_oob(raw, segment)
            if flips:
                self.fault_stats.oob_bit_flips += flips
                self.emit_fault("oob_bit_flip", segment,
                                f"page={page} bits={flips}")
        return raw

    def invalidate_page(self, segment: int, page: int) -> None:
        self.segment(segment).invalidate_page(page)

    def erase_segment(self, segment: int) -> int:
        """Erase ``segment``; returns the erase time in nanoseconds.

        Past the rated endurance the overshoot is recorded (or, under
        ``strict_endurance``, :class:`EnduranceExceeded` is raised).
        With a fault injector attached, transient erase failures are
        retried within the budget; a permanent or wear-correlated
        grown-bad verdict marks the segment bad and raises
        :class:`BadBlockError` so the caller can retire it.
        """
        for hook in self.pre_op_hooks:
            hook("erase", segment, None, None)
        seg = self.segment(segment)
        if seg.erase_count >= self.params.endurance_cycles:
            if self.strict_endurance:
                raise EnduranceExceeded(
                    f"segment {segment} is past its rated "
                    f"{self.params.endurance_cycles} cycles")
            self.fault_stats.endurance_overshoots += 1
        injector = self._fault_injector
        if injector is not None:
            failures = 0
            while True:
                wear = seg.erase_count / self.params.endurance_cycles
                verdict = injector.erase_verdict(segment, wear)
                if verdict == "ok":
                    break
                if verdict == "transient":
                    failures += 1
                    self.fault_stats.erase_retries += 1
                    self.emit_fault("transient_erase_failure", segment)
                    if self._op_observer is not None:
                        self._op_observer("retry_erase", segment, 1)
                    if failures <= self._erase_retries:
                        continue
                    verdict = "retry_exhausted"
                seg.mark_bad()
                if verdict == "grown_bad":
                    self.fault_stats.grown_bad_blocks += 1
                else:
                    self.fault_stats.permanent_erase_failures += 1
                self.emit_fault("bad_block", segment, verdict)
                raise BadBlockError(segment, verdict)
        time_ns = self.erase_time_ns(segment)
        seg.erase()
        self._ecc_codes.pop(segment, None)
        return time_ns

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def enable_degradation(self, program_curve=None,
                           erase_curve=None) -> None:
        """Make program/erase times wear-dependent (Section 2).

        Pass :class:`~repro.flash.endurance.DegradationCurve` instances;
        omitted curves default to the module's calibrated ones.  Once
        enabled, :meth:`program_time_ns` and :meth:`erase_time_ns`
        reflect each segment's accumulated erase cycles, so an aged
        array really is slower to maintain.
        """
        from .endurance import (ERASE_SPEC_NS, PROGRAM_SPEC_NS,
                                DegradationCurve)

        self._program_curve = program_curve or DegradationCurve(
            self.params.program_ns, PROGRAM_SPEC_NS)
        self._erase_curve = erase_curve or DegradationCurve(
            self.params.erase_ns, ERASE_SPEC_NS)

    def read_time_ns(self, segment: int = 0) -> int:
        return self.params.read_ns  # reads never degrade (Section 2)

    def program_time_ns(self, segment: int = 0) -> int:
        curve = getattr(self, "_program_curve", None)
        if curve is None:
            return self.params.program_ns
        return int(curve.time_at(self.segments[segment].erase_count))

    def erase_time_ns(self, segment: int = 0) -> int:
        curve = getattr(self, "_erase_curve", None)
        if curve is None:
            return self.params.erase_ns
        return int(curve.time_at(self.segments[segment].erase_count))

    # ------------------------------------------------------------------
    # Wear and occupancy statistics
    # ------------------------------------------------------------------

    def wear_stats(self) -> WearStats:
        return WearStats(
            erase_counts=[s.erase_count for s in self.segments],
            program_counts=[s.program_count for s in self.segments],
            endurance_cycles=self.params.endurance_cycles,
        )

    def live_pages(self) -> int:
        return sum(s.live_count for s in self.segments)

    def utilization(self) -> float:
        """Fraction of the whole array holding live data (Section 4.1)."""
        return self.live_pages() / self.total_pages

    def erased_segments(self) -> List[int]:
        return [s.segment_id for s in self.segments if s.is_erased]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlashArray({self.num_segments} segments x "
                f"{self.pages_per_segment} pages x {self.page_bytes} B)")
