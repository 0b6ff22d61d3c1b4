#!/usr/bin/env python3
"""Quickstart: eNVy as a persistent, memory-speed linear address space.

Builds a small eNVy system, uses it like ordinary memory (word reads and
writes, no blocks, no serialisation), shows the latency model, survives
a power failure, and prints what the Flash-management machinery did
underneath.

Run:  python examples/quickstart.py
"""

import random

from repro import EnvyConfig, EnvySystem


def main() -> None:
    # A laptop-scale array: 32 segments x 256 pages x 256 B (~2 MiB of
    # persistent space at 80% provisioning).  EnvyConfig.paper() gives
    # the full 2 GB system of the paper.
    config = EnvyConfig.small(num_segments=32, pages_per_segment=256)
    system = EnvySystem(config)
    print(f"eNVy system: {system.size_bytes:,} bytes of linear "
          f"non-volatile memory")
    print(f"  flash: {config.flash.num_segments} segments of "
          f"{config.flash.segment_bytes:,} B, "
          f"{config.page_bytes} B pages")
    print(f"  SRAM:  {config.sram.buffer_bytes:,} B write buffer + "
          f"{config.page_table_bytes:,} B page table")

    # --- plain loads and stores -------------------------------------
    system.write(0, b"Hello, persistent world!")
    greeting = system.read(0, 24)
    print(f"\nread back: {greeting!r}")

    # Word-granularity in-place updates: no read-modify-write of disk
    # blocks, no save format (Section 1's interface argument).
    system.write(7, b"eNVy")
    print(f"after in-place patch: {system.read(0, 24)!r}")

    # --- the latency model -------------------------------------------
    _, read_ns = system.read_timed(0, 8)
    write_ns = system.write(4096, b"12345678")      # copy-on-write
    rewrite_ns = system.write(4097, b"x")           # SRAM buffer hit
    print(f"\nlatencies: read {read_ns} ns, first write {write_ns} ns "
          f"(copy-on-write), rewrite {rewrite_ns} ns (buffered)")

    # --- stress it so cleaning has to run ----------------------------
    rng = random.Random(42)
    for _ in range(30_000):
        address = rng.randrange(system.size_bytes - 8)
        system.write(address, rng.randbytes(8))
    metrics = system.metrics
    print(f"\nafter 30,000 random writes:")
    print(f"  buffer hit rate : {metrics.buffer_hit_rate:.1%}")
    print(f"  pages flushed   : {metrics.flushes:,}")
    print(f"  cleaning cost   : {metrics.cleaning_cost:.2f} "
          f"(cleaner programs per flushed page)")
    print(f"  segments erased : {metrics.erases:,}")
    wear = system.array.wear_stats()
    print(f"  wear spread     : {wear.spread} erase cycles "
          f"(max {max(wear.erase_counts)})")

    # --- power failure ------------------------------------------------
    system.write(100, b"written moments before the outage")
    system.power_cycle()
    survived = system.read(100, 33)
    print(f"\nafter power cycle: {survived!r}")
    system.check_consistency()
    print("consistency check: OK")


if __name__ == "__main__":
    main()
