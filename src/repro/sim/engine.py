"""Timed simulation of eNVy under a transaction workload (Section 5).

Reproduces the methodology behind Figures 13-15: transactions arrive
with exponentially distributed inter-arrival times, the host executes
each transaction's storage accesses serially over the memory bus, and
the controller performs its long operations (flushing, cleaning,
erasing) in the gaps between host accesses.

Two interactions give the curves their shape:

* Long operations are *suspendable* (Section 3.4): a host access that
  arrives while one is in progress waits only for the current atomic
  step, modelled as a small uniformly distributed suspension delay.
  This is why measured latencies (~180 ns reads / ~200 ns writes) sit
  just above the raw 160 ns access time.
* The write buffer decouples host writes from Flash programs until it
  fills.  Once offered load exceeds the cleaner's capacity the buffer
  stays full, every copy-on-write stalls behind a flush (which may
  itself wait on cleaning), and write latency jumps by an order of
  magnitude — the cliff of Figure 15.  Erase time triggered during a
  host stall is deferred back to background (erases do not gate the
  flush that triggered them; the spare segment is erased lazily).

The host issues accesses through a real :class:`~repro.core.controller.
EnvyController` running in placement-only mode (``store_data=False``) so
simulated seconds stay cheap.  The workload protocol is ``rate_tps``,
``next_transaction()`` and ``runs(txn, page_bytes)``: a transaction
arrives already grouped into page runs (:func:`~repro.workloads.tpca.
page_runs`), the unit a 256-byte-wide transfer serves —
:class:`~repro.workloads.tpca.TpcaWorkload` or any compatible generator.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.config import EnvyConfig
from ..core.controller import EnvyController
from ..db.layout import WORD_BYTES, TpcaLayout
from ..workloads.tpca import WORD_WRITE, TpcaWorkload
from .tracker import SimStats

__all__ = ["TimedSimulator", "simulate_tpca", "build_tpca_system"]


class TimedSimulator:
    """Replays timed transactions against an eNVy controller."""

    __slots__ = ("controller", "workload", "suspend_max_ns", "rng",
                 "_debt_ns", "_overdraft_ns")

    def __init__(self, controller: EnvyController,
                 workload: TpcaWorkload,
                 suspend_max_ns: int = 40,
                 seed: Optional[int] = 99) -> None:
        self.controller = controller
        self.workload = workload
        self.suspend_max_ns = suspend_max_ns
        self.rng = random.Random(seed)
        #: Deferred background work (erases triggered during host stalls).
        self._debt_ns = 0
        #: Time of the background operation currently in flight beyond
        #: the idle budget that started it (a flush sequence is atomic:
        #: once started it runs to completion across gaps).
        self._overdraft_ns = 0

    # ------------------------------------------------------------------

    def prewarm(self, free_space_turnovers: float = 3.0,
                seed: int = 5) -> None:
        """:meth:`EnvyController.prewarm`, then a clean debt ledger."""
        self.controller.prewarm(free_space_turnovers, seed)
        self._debt_ns = 0
        self._overdraft_ns = 0

    def run(self, duration_s: float,
            warmup_s: float = 0.0) -> SimStats:
        """Simulate ``duration_s`` seconds (after ``warmup_s`` warm-up)."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if warmup_s < 0:
            raise ValueError(f"warm-up cannot be negative, got {warmup_s}")
        stats = SimStats(requested_tps=self.workload.rate_tps)
        warmup_ns = int(warmup_s * 1e9)
        end_ns = warmup_ns + int(duration_s * 1e9)
        controller = self.controller
        metrics = controller.metrics
        clock = 0
        measuring = warmup_ns == 0
        if measuring:
            metrics.reset()
        base = (metrics.flushes, metrics.clean_copies, metrics.erases,
                dict(metrics.busy_ns))
        measure_start = warmup_ns
        next_transaction = self.workload.next_transaction
        background = self._background
        execute = self._execute
        events = controller.events

        while True:
            txn = next_transaction()
            if txn.arrival_ns >= end_ns:
                break
            if not measuring and txn.arrival_ns >= warmup_ns:
                measuring = True
                base = (metrics.flushes, metrics.clean_copies,
                        metrics.erases, dict(metrics.busy_ns))
                stats.read_latency = type(stats.read_latency)()
                stats.write_latency = type(stats.write_latency)()
                measure_start = max(clock, warmup_ns)
            if measuring:
                stats.transactions_offered += 1
            # Idle gap until this transaction can start: background work.
            if txn.arrival_ns > clock:
                gap = txn.arrival_ns - clock
                done = background(gap)
                busy_at_arrival = done >= gap
                clock = txn.arrival_ns
            else:
                busy_at_arrival = True  # host queue is backed up
            if events.active:
                # Idle gaps appear as real gaps on the exported
                # timeline: jump the observability clock to the arrival.
                events.sync(clock)
            clock = execute(txn, clock, busy_at_arrival,
                            stats if measuring else None)
            if measuring:
                stats.transactions_completed += 1

        stats.simulated_ns = max(1, clock - measure_start)
        base_flushes, base_cleans, base_erases, base_busy = base
        stats.pages_flushed = metrics.flushes - base_flushes
        stats.clean_copies = metrics.clean_copies - base_cleans
        stats.erases = metrics.erases - base_erases
        stats.busy_ns = {
            key: value - base_busy.get(key, 0)
            for key, value in metrics.busy_ns.items()
            if value - base_busy.get(key, 0) > 0
        }
        return stats

    # ------------------------------------------------------------------

    def _background(self, budget_ns: int) -> int:
        """Spend idle bus time on pending and new background work.

        Order: finish the operation already in flight (overdraft), pay
        deferred erases, then flush (:meth:`EnvyController.
        background_work`).  Work past the gap is carried to the next one
        (or charged to a stalling host write), so background work never
        outruns simulated time.  Returns the time spent, ≤ ``budget_ns``.
        """
        pending = self._overdraft_ns
        if self._debt_ns and pending < budget_ns:
            paid = min(self._debt_ns, budget_ns - pending)
            self._debt_ns -= paid
            pending += paid
        carry = self.controller.background_work(budget_ns, pending)
        self._overdraft_ns = max(carry, 0)
        return budget_ns + min(carry, 0)

    def _execute(self, txn, clock: int, busy_at_arrival: bool,
                 stats: Optional[SimStats]) -> int:
        """Run one transaction's accesses serially; returns the new clock.

        The first access may find a long operation in flight and waits a
        suspension delay; later accesses follow so closely that the
        controller has no time to restart long work between them
        (Section 3.4: it "waits a few microseconds before resuming ...
        to avoid spurious restarts during bursts").
        """
        controller = self.controller
        metrics = controller.metrics
        busy_ns = metrics.busy_ns
        write = controller.write
        read_run_ns = controller.read_run_ns
        if stats is not None:
            record_read = stats.read_latency.record
            record_reads = stats.read_latency.record_n
            record_write = stats.write_latency.record
        else:
            record_read = record_reads = record_write = None
        # Suspension delay, paid by the transaction's first access only.
        wait = (self.rng.randrange(self.suspend_max_ns)
                if busy_at_arrival and self.suspend_max_ns else 0)
        for where, count in self.workload.runs(txn,
                                               controller.config.page_bytes):
            if count > 0:
                # Back-to-back word reads inside one page (a B-tree
                # node's probes, a record's words): priced once.
                first_ns, repeat_ns = read_run_ns(where, count)
                total = wait + first_ns
                if record_read is not None:
                    if total == repeat_ns:
                        record_reads(total, count)
                    else:
                        record_read(total)
                        record_reads(repeat_ns, count - 1)
                clock += repeat_ns * (count - 1)
            elif count == WORD_WRITE:
                erase_before = busy_ns.get("erase", 0)
                flushes_before = metrics.flushes
                cleans_before = metrics.clean_copies
                ns = write(where, _WORD_PAYLOAD)
                # Erase time triggered by a stalled flush is deferred:
                # the host only waits for the program(s).  But a *clean*
                # needs the spare segment erased first, so any erase
                # still outstanding from an earlier stall is paid now.
                erase_delta = busy_ns.get("erase", 0) - erase_before
                if erase_delta:
                    ns -= erase_delta
                if (metrics.clean_copies != cleans_before
                        and self._debt_ns):
                    ns += self._debt_ns
                    self._debt_ns = 0
                self._debt_ns += erase_delta
                if metrics.flushes != flushes_before:
                    # The write stalled on a flush; it also had to wait
                    # for whatever background operation was in flight.
                    ns += self._overdraft_ns
                    self._overdraft_ns = 0
                total = wait + ns
                if record_write is not None:
                    record_write(total)
                    if ns > 1000:
                        stats.host_stall_ns += ns
            else:
                # STRADDLING_READ: the word crosses a page boundary
                # (TPC-A's 100-byte records do); both pages are charged.
                total = wait + controller.read_timed(where, WORD_BYTES)[1]
                if record_read is not None:
                    record_read(total)
            clock += total
            wait = 0
        return clock


_WORD_PAYLOAD = b"\x00" * WORD_BYTES


def build_tpca_system(num_segments: int = 128,
                      pages_per_segment: int = 1024,
                      utilization: float = 0.80,
                      rate_tps: float = 10_000.0,
                      policy: str = "hybrid",
                      seed: int = 7,
                      program_speedup: float = 1.0,
                      fault_plan=None,
                      reserve_segments: int = 0) -> TimedSimulator:
    """Assemble the Figure 13-15 experiment at a reduced scale.

    The default array is 32 MiB (128 segments of 256 KiB) — 1/64 of
    the paper's 2 GB — with erase time scaled to keep the
    erase-per-program ratio, and a database sized to fill the live
    space like the paper's 15.5 million accounts fill 2 GB.  Saturation
    behaviour depends on these ratios, not on absolute capacity.

    ``fault_plan`` (a :class:`~repro.faults.plan.FaultPlan`) runs the
    experiment under injected device faults, with ``reserve_segments``
    spare segments available for bad-block retirement.
    """
    config = EnvyConfig.scaled(num_segments=num_segments,
                               pages_per_segment=pages_per_segment,
                               max_utilization=utilization,
                               cleaning_policy=policy,
                               fault_plan=fault_plan,
                               reserve_segments=reserve_segments)
    if program_speedup != 1.0:
        # The Section 6 extension: the cleaner runs several program and
        # erase operations concurrently on different banks, dividing the
        # effective per-page program/erase time (4 us -> <1 us at 4-8
        # way concurrency).
        import dataclasses

        if program_speedup <= 0:
            raise ValueError("program_speedup must be positive")
        flash = dataclasses.replace(
            config.flash,
            program_ns=max(1, int(config.flash.program_ns
                                  / program_speedup)),
            erase_ns=max(1, int(config.flash.erase_ns / program_speedup)))
        config = dataclasses.replace(config, flash=flash)
    controller = EnvyController(config, store_data=False)
    layout = TpcaLayout.sized_for(config.logical_bytes)
    workload = TpcaWorkload(layout, rate_tps, seed=seed)
    return TimedSimulator(controller, workload, seed=seed + 1)


def simulate_tpca(rate_tps: float, duration_s: float = 0.3,
                  warmup_s: float = 0.1, utilization: float = 0.80,
                  num_segments: int = 128, pages_per_segment: int = 1024,
                  policy: str = "hybrid", seed: int = 7,
                  prewarm_turnovers: float = 10.0,
                  program_speedup: float = 1.0) -> SimStats:
    """One point of the Figure 13/14/15 curves."""
    simulator = build_tpca_system(num_segments, pages_per_segment,
                                  utilization, rate_tps, policy, seed,
                                  program_speedup)
    if prewarm_turnovers > 0:
        simulator.prewarm(prewarm_turnovers)
    return simulator.run(duration_s, warmup_s)
