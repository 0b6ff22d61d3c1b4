"""Backend (d): an ONFI-style NAND device with real command cycles.

The other backends hand the controller an abstract "program this page"
operation; a real NAND part hands it a bus.  This backend models the
ONFI command set a Flash controller actually drives:

=========  =====================================  ==================
operation  command sequence                        cycles on the bus
=========  =====================================  ==================
read       00h, 5 address cycles, 30h, data out   2 + A + page bytes
program    80h, 5 address cycles, data in, 10h,   2 + A + page+OOB
           70h status poll                        + 1 status
erase      60h, 3 row-address cycles, D0h,        2 + 3 + 1 status
           70h status poll
=========  =====================================  ==================

Every cycle costs ``cycle_ns`` on top of the cell-level Figure 12
array times (tR/tPROG/tBERS), and the total is charged through the
standard per-op cost hooks — so the controller's latency accounting
sees ONFI bus transfer time without knowing ONFI exists.  The
:class:`OnfiBus` keeps cycle counters and a bounded log of recent
command sequences for the tests and ``media_report()``.

Real parts also ship with factory bad-block marks (ONFI 5.x: the
defect area of a factory-bad block reads non-FFh).  ``factory_bad=N``
marks N seeded-random segments bad before the controller ever sees the
array; the controller retires them into the PR-1
:class:`~repro.faults.badblocks.BadBlockTable` at format time, exactly
as a real FTL builds its initial bad-block table from the factory scan.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional, Tuple

from ..flash.array import FlashArray
from ..flash.errors import FlashError
from ..flash.oob import OOB_BYTES
from .registry import RegistryError, register_backend

__all__ = ["OnfiBus", "OnfiBackend", "make_onfi_backend"]

# ONFI command opcodes (the subset a log-structured FTL issues).
CMD_READ = 0x00
CMD_READ_CONFIRM = 0x30
CMD_PROGRAM = 0x80
CMD_PROGRAM_CONFIRM = 0x10
CMD_ERASE = 0x60
CMD_ERASE_CONFIRM = 0xD0
CMD_STATUS = 0x70

#: Status-register value for ready / pass (SR[6]=RDY, SR[5]=ARDY).
STATUS_READY = 0x60
#: Ready with FAIL bit set (SR[0]).
STATUS_FAIL = 0x61


class OnfiBus:
    """Cycle-accurate counters for an ONFI command/address/data bus."""

    def __init__(self, cycle_ns: int = 25, log_limit: int = 32) -> None:
        self.cycle_ns = int(cycle_ns)
        self.command_cycles = 0
        self.address_cycles = 0
        self.data_in_cycles = 0
        self.data_out_cycles = 0
        self.status_cycles = 0
        self.operations = 0
        self.log: deque = deque(maxlen=log_limit)

    def sequence(self, name: str, commands: List[int], addresses: int,
                 data_in: int = 0, data_out: int = 0,
                 status: int = 0) -> int:
        """Record one command sequence; return its bus time in ns."""
        self.command_cycles += len(commands)
        self.address_cycles += addresses
        self.data_in_cycles += data_in
        self.data_out_cycles += data_out
        self.status_cycles += status
        self.operations += 1
        cycles = len(commands) + addresses + data_in + data_out + status
        self.log.append((name, tuple(commands), addresses,
                         data_in, data_out, status))
        return cycles * self.cycle_ns

    @property
    def total_cycles(self) -> int:
        return (self.command_cycles + self.address_cycles
                + self.data_in_cycles + self.data_out_cycles
                + self.status_cycles)

    def stats(self) -> dict:
        return {
            "operations": self.operations,
            "command_cycles": self.command_cycles,
            "address_cycles": self.address_cycles,
            "data_in_cycles": self.data_in_cycles,
            "data_out_cycles": self.data_out_cycles,
            "status_cycles": self.status_cycles,
            "total_cycles": self.total_cycles,
            "bus_ns": self.total_cycles * self.cycle_ns,
        }


class OnfiBackend(FlashArray):
    """FlashArray driven through ONFI command/address/status cycles."""

    backend_name = "onfi"

    def __init__(self, params=None, page_bytes: int = 256,
                 store_data: bool = True, spare_segments: int = 0,
                 cycle_ns: int = 25, addr_cycles: int = 5,
                 factory_bad: int = 0, bb_seed: int = 0) -> None:
        super().__init__(params, page_bytes, store_data=store_data,
                         spare_segments=spare_segments)
        self.bus = OnfiBus(cycle_ns=cycle_ns)
        self.addr_cycles = int(addr_cycles)
        self.status_register = STATUS_READY
        marks: List[int] = []
        if factory_bad:
            if factory_bad >= self.num_segments:
                raise ValueError(
                    f"factory_bad={factory_bad} would mark every "
                    f"segment of a {self.num_segments}-segment array")
            rng = random.Random(bb_seed)
            marks = sorted(rng.sample(range(self.num_segments),
                                      int(factory_bad)))
            for phys in marks:
                self.segments[phys].mark_bad()
        self._factory_marks: Tuple[int, ...] = tuple(marks)

    @property
    def factory_bad_segments(self) -> Tuple[int, ...]:
        """Segments the factory scan marked bad (ONFI defect area)."""
        return self._factory_marks

    # --- per-cycle timing folded into the standard cost hooks ---------

    def _read_cycles(self) -> int:
        return 2 + self.addr_cycles + self.page_bytes

    def _program_cycles(self) -> int:
        return 2 + self.addr_cycles + self.page_bytes + OOB_BYTES + 1

    def _erase_cycles(self) -> int:
        return 2 + 3 + 1

    def read_time_ns(self, segment: int = 0) -> int:
        return (super().read_time_ns(segment)
                + self._read_cycles() * self.bus.cycle_ns)

    def program_time_ns(self, segment: int = 0) -> int:
        return (super().program_time_ns(segment)
                + self._program_cycles() * self.bus.cycle_ns)

    def erase_time_ns(self, segment: int = 0) -> int:
        return (super().erase_time_ns(segment)
                + self._erase_cycles() * self.bus.cycle_ns)

    # --- operations issue their command sequences ---------------------

    def program_page(self, segment: int, data: Optional[bytes] = None,
                     oob: Optional[bytes] = None) -> Tuple[int, int]:
        try:
            page, ns = super().program_page(segment, data, oob)
        except FlashError:
            # Device failures only: a power cut raised by a pre-op hook
            # never reached the part, so it leaves no status behind.
            self.status_register = STATUS_FAIL
            raise
        self.bus.sequence("program",
                          [CMD_PROGRAM, CMD_PROGRAM_CONFIRM],
                          self.addr_cycles,
                          data_in=self.page_bytes + OOB_BYTES,
                          status=1)
        self.status_register = STATUS_READY
        return page, ns

    def read_page(self, segment: int, page: int) -> Optional[bytes]:
        data = super().read_page(segment, page)
        self.bus.sequence("read", [CMD_READ, CMD_READ_CONFIRM],
                          self.addr_cycles, data_out=self.page_bytes)
        return data

    def read_oob(self, segment: int, page: int) -> Optional[bytes]:
        oob = super().read_oob(segment, page)
        # Spare-area random-out: 05h/E0h column jump, OOB bytes out.
        self.bus.sequence("read_oob", [0x05, 0xE0], 2,
                          data_out=OOB_BYTES)
        return oob

    def erase_segment(self, segment: int) -> int:
        try:
            ns = super().erase_segment(segment)
        except FlashError:
            # The erase still consumed bus cycles; the status poll is
            # how the controller learns it failed (SR[0]=FAIL).
            self.bus.sequence("erase",
                              [CMD_ERASE, CMD_ERASE_CONFIRM],
                              3, status=1)
            self.status_register = STATUS_FAIL
            raise
        self.bus.sequence("erase", [CMD_ERASE, CMD_ERASE_CONFIRM],
                          3, status=1)
        self.status_register = STATUS_READY
        return ns

    # ------------------------------------------------------------------

    def media_report(self) -> dict:
        report = {"medium": "onfi",
                  "cycle_ns": self.bus.cycle_ns,
                  "factory_bad": len(self._factory_marks)}
        report.update(self.bus.stats())
        return report


@register_backend(
    "onfi",
    summary="ONFI-style NAND model (command/address/status cycles "
            "charged through the cost model; factory bad blocks)",
    options="cycle_ns=25, addr_cycles=5, factory_bad=0, bb_seed=0")
def make_onfi_backend(config, store_data, spare_segments, cycle_ns=25,
                      addr_cycles=5, factory_bad=0, bb_seed=0):
    if cycle_ns < 0 or addr_cycles < 1 or factory_bad < 0:
        raise RegistryError(
            f"onfi: need cycle_ns >= 0, addr_cycles >= 1, factory_bad >= 0 "
            f"(got {cycle_ns}, {addr_cycles}, {factory_bad})")
    return OnfiBackend(config.flash, config.page_bytes,
                       store_data=store_data,
                       spare_segments=spare_segments,
                       cycle_ns=cycle_ns, addr_cycles=addr_cycles,
                       factory_bad=factory_bad, bb_seed=bb_seed)
