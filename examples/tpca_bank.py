#!/usr/bin/env python3
"""A TPC-A banking database running on eNVy (Section 5.2).

The workload class the paper's evaluation targets: a small, I/O-bound
transaction system.  Branch, teller and account balance records live as
100-byte records in eNVy's linear memory, indexed by B-trees with 32
entries per node; every transaction searches three trees and updates
three balances — all with plain loads and stores.

Run:  python examples/tpca_bank.py
"""

import random
import time

from repro import EnvyConfig, EnvySystem, TpcParams, TpcaDatabase


def main() -> None:
    # A database scaled to a few thousand accounts so the demo loads in
    # well under a second; the same code runs the paper's 15.5 million
    # accounts on the 2 GB configuration.
    config = EnvyConfig.small(num_segments=32, pages_per_segment=256)
    system = EnvySystem(config)
    params = TpcParams().scaled_to_accounts(5000)
    database = TpcaDatabase(system, params)

    print(f"loading {params.num_accounts:,} accounts, "
          f"{params.num_tellers} tellers, {params.num_branches} "
          f"branch(es) into {system.size_bytes:,} B of eNVy memory...")
    start = time.perf_counter()
    database.load(initial_balance=1_000)
    print(f"loaded in {time.perf_counter() - start:.2f}s "
          f"({database.layout.total_bytes:,} B including indexes)")

    # --- one transaction, narrated -----------------------------------
    result = database.transaction(account=1234, delta=+250)
    print(f"\ndeposit $250 to account 1234:")
    print(f"  account balance: {result.account_balance}")
    print(f"  teller {result.teller} balance: {result.teller_balance}")
    print(f"  branch {result.branch} balance: {result.branch_balance}")

    # --- a burst of random transactions -------------------------------
    count = 5_000
    rng = random.Random(7)
    start = time.perf_counter()
    for _ in range(count):
        database.transaction(rng.randrange(params.num_accounts),
                             rng.randint(-500, 500))
    elapsed = time.perf_counter() - start
    print(f"\nran {count:,} transactions in {elapsed:.2f}s "
          f"({count / elapsed:,.0f} txn/s of pure Python)")

    print("storage work underneath:")
    print(system.metrics.summary())

    # --- the TPC-A consistency condition -------------------------------
    database.check_consistency()
    print("\nTPC-A balance roll-up invariant: OK")

    # --- durability -----------------------------------------------------
    system.power_cycle()
    database.check_consistency()
    print("after power failure: balances intact, invariant still holds")


if __name__ == "__main__":
    main()
