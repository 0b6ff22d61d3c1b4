#!/usr/bin/env python3
"""Power-failure recovery at the worst possible moments (Section 3.4).

"The state of the cleaning process is kept in persistent memory so the
controller can recover quickly after a failure."

This demo subscribes a kill switch to the Flash array's pre-operation
hooks and arms it to cut the power in the middle of Flash operations —
during page copies, between a clean's commit and its erase, mid-flush —
then runs recovery and proves no committed byte was lost, over and over.

Run:  python examples/crash_recovery.py
"""

import random

from repro import EnvyConfig, EnvySystem
from repro.core.chaos import KillSwitch
from repro.core.recovery import (CleanPhase, SimulatedPowerFailure,
                                 attach_journal, recover)


def main() -> None:
    system = EnvySystem(EnvyConfig.small(num_segments=8,
                                         pages_per_segment=16))
    journal = attach_journal(system)
    rng = random.Random(2024)
    # Whoever attaches an instrument detaches it: the switch stays
    # subscribed for exactly this block.
    with KillSwitch(system.array) as injector:
        run_demo(system, journal, injector, rng)


def run_demo(system, journal, injector, rng) -> None:
    # Build up committed state.
    shadow = {}
    for _ in range(1200):
        address = rng.randrange(system.size_bytes - 8) & ~7
        value = rng.randbytes(8)
        system.write(address, value)
        shadow[address] = value
    print(f"committed {len(shadow):,} distinct words; "
          f"{system.metrics.erases} segments already erased by cleaning")

    crashes = {phase: 0 for phase in CleanPhase}
    survived = 0
    for round_number in range(25):
        injector.arm(rng.randrange(1, 30))
        interrupted_write = None
        try:
            for _ in range(400):
                address = rng.randrange(system.size_bytes - 8) & ~7
                value = rng.randbytes(8)
                interrupted_write = address
                system.write(address, value)
                shadow[address] = value
                interrupted_write = None
        except SimulatedPowerFailure:
            phase = journal.phase
            crashes[phase] += 1
            if interrupted_write is not None:
                # The in-flight host write never completed; like any
                # transaction system, the application re-runs it.
                shadow.pop(interrupted_write, None)
            recover(system, journal)
        injector.disarm()
        # Verify a sample of committed data after every crash.
        for address in rng.sample(list(shadow), 50):
            assert system.read(address, 8) == shadow[address]
        survived += 1

    print(f"\nsurvived {survived} rounds of random power failures:")
    print(f"  during cleaning copy phase : {crashes[CleanPhase.COPYING]}")
    print(f"  after commit, before erase : "
          f"{crashes[CleanPhase.COMMITTED]}")
    print(f"  during ordinary flushes    : {crashes[CleanPhase.IDLE]}")

    # Full verification at the end.
    for address, value in shadow.items():
        assert system.read(address, 8) == value
    system.check_consistency()
    print(f"\nall {len(shadow):,} committed words verified; "
          f"store/array/page-table consistency holds.")
    print("shadow paging + the cleaning journal make every crash point "
          "recoverable.")


if __name__ == "__main__":
    main()
