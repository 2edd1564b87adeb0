#!/usr/bin/env python3
"""Transactions, write-ahead logging, and crash recovery.

The paper delegates "the necessary transactional support" to BerkeleyDB;
this library implements it: a write-ahead log on a dedicated device, a
steal/write-through page policy, and undo-only crash recovery.

Run:  python examples/transactions.py
"""

from repro import Host, HostConfig, Schema, StorageManager
from repro.storage import TransactionManager
from repro.storage.page import RID


def main() -> None:
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=64)
    sm.create_table("accounts", Schema.of("id:int", "balance:int"))
    sm.load_table("accounts", [(i, 100) for i in range(10)])
    tm = TransactionManager(sm)

    def balances():
        return {
            row[0]: row[1]
            for row in sm.catalog.table("accounts").heap.all_rows()
        }

    def committed_transfer():
        """Move 30 from account 0 to account 1, atomically."""
        txn = tm.begin()
        yield from tm.update(txn, "accounts", RID(0, 0), (0, 70))
        yield from tm.update(txn, "accounts", RID(0, 1), (1, 130))
        yield from tm.commit(txn)

    def aborted_transfer():
        """Start a transfer, then change our mind."""
        txn = tm.begin()
        yield from tm.update(txn, "accounts", RID(0, 2), (2, 0))
        yield from tm.abort(txn)

    def doomed_transfer():
        """A transfer in flight when the machine dies."""
        txn = tm.begin()
        yield from tm.update(txn, "accounts", RID(0, 3), (3, 0))
        yield from tm.update(txn, "accounts", RID(0, 4), (4, 200))
        # ... crash before commit

    for step in (committed_transfer, aborted_transfer, doomed_transfer):
        proc = host.sim.spawn(step())
        host.sim.run()
    print("before crash     :", balances())
    print("  (accounts 3/4 show the doomed transfer's dirty writes)")

    tm.simulate_crash()
    proc = host.sim.spawn(tm.recover())
    host.sim.run()
    print("after recovery   :", balances())
    print(f"  losers undone  : {proc.value}")
    print(f"  log records    : {len(tm.wal.records)} "
          f"(flushed through lsn {tm.wal.flushed})")

    final = balances()
    assert final[0] == 70 and final[1] == 130  # committed work survives
    assert final[2] == 100                     # abort rolled back
    assert final[3] == 100 and final[4] == 100  # crash recovery undid
    print("\natomicity + durability verified.")


if __name__ == "__main__":
    main()
