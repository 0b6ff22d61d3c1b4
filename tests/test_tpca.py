"""Tests for the TPC-A database, workload generator, and their agreement."""

import hashlib
import json

import pytest

from repro.core import EnvyConfig, EnvySystem, TpcParams
from repro.db import TpcaDatabase, TpcaLayout
from repro.sim import build_tpca_system
from repro.workloads.tpca import READ, WRITE, TpcaWorkload

from .fidelity import LEDGER


@pytest.fixture(scope="module")
def loaded_db():
    config = EnvyConfig.small(num_segments=16, pages_per_segment=256)
    system = EnvySystem(config)
    params = TpcParams().scaled_to_accounts(2000)
    db = TpcaDatabase(system, params)
    db.load(initial_balance=100)
    return system, db


class TestDatabase:
    def test_transaction_updates_all_three_levels(self, loaded_db):
        _, db = loaded_db
        before = (db.account_balance(5), db.teller_balance(0),
                  db.branch_balance(0))
        result = db.transaction(5, 25)
        assert db.account_balance(5) == before[0] + 25
        assert db.teller_balance(result.teller) == before[1] + 25
        assert db.branch_balance(result.branch) == before[2] + 25

    def test_teller_is_accounts_home(self, loaded_db):
        _, db = loaded_db
        result = db.transaction(db.params.accounts_per_teller + 3, 1)
        assert result.teller == 1
        assert result.branch == 0

    def test_negative_delta(self, loaded_db):
        _, db = loaded_db
        before = db.account_balance(42)
        db.transaction(42, -75)
        assert db.account_balance(42) == before - 75

    def test_unknown_account(self, loaded_db):
        _, db = loaded_db
        with pytest.raises(KeyError):
            db.account_balance(db.params.num_accounts)

    def test_database_too_big_rejected(self):
        system = EnvySystem(EnvyConfig.small(num_segments=8,
                                             pages_per_segment=32))
        with pytest.raises(ValueError):
            TpcaDatabase(system, TpcParams().scaled_to_accounts(100_000))

    def test_unloaded_database_refuses_transactions(self):
        system = EnvySystem(EnvyConfig.small(num_segments=16,
                                             pages_per_segment=256))
        db = TpcaDatabase(system, TpcParams().scaled_to_accounts(2000))
        with pytest.raises(RuntimeError):
            db.transaction(0, 1)

    def test_run_and_consistency(self):
        config = EnvyConfig.small(num_segments=16, pages_per_segment=256)
        system = EnvySystem(config)
        db = TpcaDatabase(system, TpcParams().scaled_to_accounts(1000))
        db.load()
        db.run(300, seed=4)
        db.check_consistency()
        system.check_consistency()


class TestWorkloadGenerator:
    def make_workload(self, accounts=50_000, rate=1000.0, seed=3):
        params = TpcParams().scaled_to_accounts(accounts)
        return TpcaWorkload(TpcaLayout(params), rate, seed=seed)

    def test_arrivals_roughly_match_rate(self):
        workload = self.make_workload(rate=10_000.0)
        transactions = list(workload.transactions(5000))
        span_s = transactions[-1].arrival_ns / 1e9
        assert 5000 / span_s == pytest.approx(10_000, rel=0.1)

    def test_arrivals_monotonic(self):
        workload = self.make_workload()
        arrivals = [t.arrival_ns for t in workload.transactions(100)]
        assert arrivals == sorted(arrivals)

    def test_accounts_uniform(self):
        workload = self.make_workload(accounts=1000)
        counts = [0] * 10
        for txn in workload.transactions(20_000):
            counts[txn.account // 100] += 1
        assert max(counts) < 1.3 * min(counts)

    def test_teller_branch_derived(self):
        workload = self.make_workload()
        for txn in workload.transactions(50):
            assert txn.teller == min(
                txn.account // workload.params.accounts_per_teller,
                workload.params.num_tellers - 1)
            assert txn.branch == txn.teller // 10

    def test_trace_has_three_balance_writes(self):
        workload = self.make_workload()
        txn = workload.next_transaction()
        trace = workload.accesses(txn)
        writes = [address for is_write, address in trace if is_write]
        assert len(writes) == 3
        layout = workload.layout
        assert layout.account_address(txn.account) + 8 in writes
        assert layout.teller_address(txn.teller) + 8 in writes
        assert layout.branch_address(txn.branch) + 8 in writes

    def test_trace_reads_whole_records(self):
        workload = self.make_workload()
        txn = workload.next_transaction()
        trace = workload.accesses(txn)
        record = workload.layout.account_address(txn.account)
        record_reads = [a for w, a in trace
                        if not w and record <= a < record + 100]
        assert len(record_reads) == 13  # ceil(100 / 8) words

    def test_trace_visits_index_path(self):
        workload = self.make_workload()
        txn = workload.next_transaction()
        trace = workload.accesses(txn)
        tree = workload.layout.account_tree
        for node_address in tree.search_path(txn.account):
            in_node = [a for w, a in trace if not w and
                       node_address <= a < node_address + tree.node_bytes]
            assert in_node, f"no access in node at {node_address}"

    def test_access_count_near_paper(self):
        # Section 5.3 implies ~80 storage accesses per transaction at
        # paper scale (40% of time on reads at 30k TPS).
        params = TpcParams()  # 15.5M accounts: 5+3+2 index levels
        workload = TpcaWorkload(TpcaLayout(params), 1000.0, seed=1)
        count = len(workload.accesses(workload.next_transaction()))
        assert 70 <= count <= 120

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            self.make_workload(rate=0)

    def test_access_stream_pinned(self):
        """sha256 of 200 transactions and their word accesses
        (``tpca_stream/first_200`` in the fidelity ledger), recorded at the
        commit before ``runs()`` shared a segment walker with
        ``accesses()`` — never update."""
        workload = build_tpca_system(num_segments=16, pages_per_segment=64,
                                     rate_tps=20_000.0, seed=11).workload
        digest = hashlib.sha256()
        for txn in workload.transactions(200):
            digest.update(json.dumps(
                [txn.account, txn.teller, txn.branch, txn.arrival_ns,
                 workload.accesses(txn)]).encode())
        LEDGER.check("tpca_stream/first_200", {"sha256": digest.hexdigest()})


class TestTraceMatchesRealDatabase:
    """The generator must predict the pages the real database touches."""

    def test_same_nodes_and_records(self, loaded_db):
        system, db = loaded_db
        params = db.params
        workload = TpcaWorkload(db.layout, 1000.0, seed=5)
        txn = workload.next_transaction()
        trace_pages = {address // system.config.page_bytes
                       for _, address in workload.accesses(txn)}
        # Record every page the real transaction touches.
        touched = set()
        original_read = system.read
        original_write = system.write

        def spy_read(address, length):
            for page in range(address // 256, (address + length - 1)
                              // 256 + 1):
                touched.add(page)
            return original_read(address, length)

        def spy_write(address, data):
            for page in range(address // 256, (address + len(data) - 1)
                              // 256 + 1):
                touched.add(page)
            return original_write(address, data)

        system.read = spy_read
        system.write = spy_write
        try:
            db.transaction(txn.account, 10)
        finally:
            system.read = original_read
            system.write = original_write
        # The trace's word accesses all fall on pages the real
        # transaction read or wrote (the real DB reads whole nodes, so
        # it may touch a few more pages than the probe subset).
        assert trace_pages <= touched
        # And both agree on the three record pages.
        for address in (db.layout.account_address(txn.account),
                        db.layout.teller_address(txn.teller),
                        db.layout.branch_address(txn.branch)):
            assert address // 256 in trace_pages
            assert address // 256 in touched
