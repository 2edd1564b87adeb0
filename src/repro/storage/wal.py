"""Write-ahead logging and transaction support.

The paper leaves "the necessary transactional support" to BerkeleyDB
(section 4.4); this module is that substrate.  The design matches the
rest of the storage manager's write-through pages:

* Data page writes go straight to disk (a *steal* policy: uncommitted
  changes can be on disk at any time).
* Every change logs a **before-image** first, and the log is flushed
  before the page write (the WAL rule), so recovery can always undo.
* Commit forces the log (durability); since pages are write-through,
  committed work needs no redo -- **recovery is undo-only**: walk the
  log backwards and reverse every operation of each unfinished
  transaction.

The log is a :class:`repro.storage.log.LogDevice` on a dedicated,
sequential-only disk: flushes charge sequential block writes, and a torn
record truncates what :meth:`TransactionManager.recover` sees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.sim import SimulationError
from repro.storage.log import LogDevice, log_disk, seal
from repro.storage.page import RID, pack_rid


class LogType(enum.Enum):
    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    txn_id: int
    type: LogType
    table: Optional[str] = None
    rid: Optional[RID] = None
    before: Optional[tuple] = None
    after: Optional[tuple] = None
    checksum: int = 0


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    txn_id: int
    state: TransactionState = TransactionState.ACTIVE
    #: LSNs of this transaction's own records, in order.
    lsns: List[int] = field(default_factory=list)


class TransactionManager:
    """ACID-ish transactions over a StorageManager.

    Usage (inside a simulation process)::

        txn = tm.begin()
        rid = yield from tm.insert(txn, "t", row)
        yield from tm.update(txn, "t", rid, new_row)
        yield from tm.commit(txn)     # or: yield from tm.abort(txn)
    """

    def __init__(self, sm):
        self.sm = sm
        self.sim = sm.sim
        self.wal = LogDevice(log_disk(sm, "wal"))
        self._next_txn = 0
        self.active: Dict[int, Transaction] = {}

    def _log(self, txn_id: int, type: LogType, **fields) -> int:
        """Append one record at the WAL's tail; returns its LSN."""
        lsn = len(self.wal.records)
        return self.wal.append(LogRecord(lsn, txn_id, type, **fields))

    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        self._next_txn += 1
        txn = Transaction(self._next_txn)
        txn.lsns.append(self._log(txn.txn_id, LogType.BEGIN))
        self.active[txn.txn_id] = txn
        return txn

    def _check_active(self, txn: Transaction) -> None:
        if txn.state is not TransactionState.ACTIVE:
            raise SimulationError(
                f"transaction {txn.txn_id} is {txn.state.value}"
            )

    # ------------------------------------------------------------------
    # Logged mutations (WAL rule: flush the record before the page write)
    # ------------------------------------------------------------------
    def insert(self, txn: Transaction, table: str, row: tuple) -> Generator:
        self._check_active(txn)
        lsn = self._log(txn.txn_id, LogType.INSERT, table=table, after=row)
        txn.lsns.append(lsn)
        yield from self.wal.flush(lsn)
        rid = yield from self.sm.insert_row(table, row)
        # Re-seal the (already flushed) record with the assigned RID that
        # undo needs.  A crash inside insert_row leaves a row no durable
        # record names: the known window of DESIGN.md section 6.
        self.wal.records[lsn] = seal(LogRecord(
            lsn, txn.txn_id, LogType.INSERT, table=table, rid=rid, after=row,
        ))
        return rid

    def update(
        self, txn: Transaction, table: str, rid: RID, new_row: tuple
    ) -> Generator:
        self._check_active(txn)
        page = yield from self.sm.read_table_page(table, rid.block_no)
        before = page.get(rid.slot)
        if before is None:
            raise KeyError(f"{rid} is a tombstone in {table}")
        lsn = self._log(
            txn.txn_id, LogType.UPDATE, table=table, rid=rid,
            before=before, after=new_row,
        )
        txn.lsns.append(lsn)
        yield from self.wal.flush(lsn)
        yield from self.sm.update_row(table, rid, new_row)

    def delete(self, txn: Transaction, table: str, rid: RID) -> Generator:
        self._check_active(txn)
        page = yield from self.sm.read_table_page(table, rid.block_no)
        before = page.get(rid.slot)
        if before is None:
            return False
        lsn = self._log(
            txn.txn_id, LogType.DELETE, table=table, rid=rid, before=before
        )
        txn.lsns.append(lsn)
        yield from self.wal.flush(lsn)
        yield from self.sm.delete_row(table, rid)
        return True

    # ------------------------------------------------------------------
    def commit(self, txn: Transaction) -> Generator:
        self._check_active(txn)
        lsn = self._log(txn.txn_id, LogType.COMMIT)
        txn.lsns.append(lsn)
        yield from self.wal.flush(lsn)  # durability point
        txn.state = TransactionState.COMMITTED
        del self.active[txn.txn_id]

    def abort(self, txn: Transaction) -> Generator:
        """Roll the transaction back using its before-images."""
        self._check_active(txn)
        for lsn in reversed(txn.lsns):
            yield from self._undo(self.wal.records[lsn])
        lsn = self._log(txn.txn_id, LogType.ABORT)
        yield from self.wal.flush(lsn)
        txn.state = TransactionState.ABORTED
        del self.active[txn.txn_id]

    def _undo(self, record: LogRecord) -> Generator:
        if record.type is LogType.INSERT and record.rid is not None:
            yield from self.sm.delete_row(record.table, record.rid)
        elif record.type is LogType.UPDATE:
            yield from self.sm.update_row(
                record.table, record.rid, record.before
            )
        elif record.type is LogType.DELETE:
            yield from self._undelete(record)

    def _undelete(self, record: LogRecord) -> Generator:
        info = self.sm.catalog.table(record.table)
        yield from self.sm.read_table_page(record.table, record.rid.block_no)
        info.heap.restore_row(record.rid, record.before)
        yield from self.sm.pool.write_page(
            info.heap.file_id, record.rid.block_no
        )
        packed = pack_rid(record.rid)
        for index in info.indexes.values():
            index.tree.insert(index.key_of(record.before), packed)
            yield from self.sm.host.disk.write(index.tree.file_id, 0)

    # ------------------------------------------------------------------
    # Crash recovery (undo-only; see module docstring)
    # ------------------------------------------------------------------
    def simulate_crash(self) -> None:
        """Drop everything volatile: unflushed (and torn) log records and
        the transaction table.  Data pages are write-through, so every
        *applied* operation has a durable log record (the WAL rule) and
        :meth:`recover` can always undo it -- bar the INSERT window
        (DESIGN.md section 6)."""
        self.wal.crash()
        self.active.clear()

    def recover(self) -> Generator:
        """Coroutine: bring the database to a transaction-consistent state
        after a simulated crash.

        Only *durable* log records exist after a crash.  Transactions
        without a durable COMMIT/ABORT are losers: their operations are
        undone in reverse log order.  Returns the list of undone txn ids.
        """
        durable = self.wal.durable()
        finished = {
            r.txn_id
            for r in durable
            if r.type in (LogType.COMMIT, LogType.ABORT)
        }
        losers = [
            r for r in reversed(durable)
            if r.txn_id not in finished
            and r.type in (LogType.INSERT, LogType.UPDATE, LogType.DELETE)
        ]
        for record in losers:
            yield from self._undo(record)
        undone = sorted({r.txn_id for r in losers})
        for txn_id in undone:
            lsn = self._log(txn_id, LogType.ABORT)
            yield from self.wal.flush(lsn)
            self.active.pop(txn_id, None)
        # Anything still "active" with no durable work simply evaporates.
        self.active.clear()
        return undone
