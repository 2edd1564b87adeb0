"""The durable-log device under the transaction WAL and the lineage logs.

One :class:`LogDevice` is one append-only log on a dedicated,
sequential-only (seek-free) disk.  Records accumulate in a buffer;
:meth:`LogDevice.flush` makes them durable, charging one sequential
block write per :data:`RECORDS_PER_BLOCK` pending records (log writes
batch well).

Records are self-checking.  Every record type is a frozen dataclass
whose last field is ``checksum``: a CRC-32 over the canonical JSON of
the fields before it (:func:`checksum`, the one record codec).  A
*torn* record -- a flush the simulated machine half-completed -- fails
its checksum, and :meth:`LogDevice.durable` truncates the durable prefix
strictly before it, so recovery never trusts a record after a tear.

Fault flags (armed by :class:`repro.faults.FaultInjector` on lineage
logs, or by tests):

* ``fail_next_flush`` -- the next flush raises
  :class:`~repro.faults.errors.LogWriteError` (``transient`` from
  ``fail_transient``) and the pending records stay volatile;
* ``tear_next_flush`` -- the next flush lands its tail record torn.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import replace
from typing import Any, Generator, List, Optional

from repro.faults.errors import LogWriteError
from repro.hw.disk import Disk

#: Records one log block holds.  Every flush in the benchmark and the
#: recovery scenarios covers at most 8 records, so it costs one block.
RECORDS_PER_BLOCK = 16


def checksum(record: Any) -> int:
    """CRC-32 over the canonical JSON of *record*'s fields, ``checksum``
    (the last field) excluded."""
    body = list(vars(record).values())[:-1]
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return zlib.crc32(blob.encode())


def seal(record: Any) -> Any:
    """*record* with its checksum filled in."""
    return replace(record, checksum=checksum(record))


def log_disk(sm, name: str) -> Disk:
    """A dedicated, sequential-only disk for logs on *sm*'s host."""
    return Disk(
        sm.sim, transfer_time=sm.host.config.disk_transfer_time,
        seek_time=0.0, name=name,
    )


class LogDevice:
    """An append-only, checksummed log on *disk*.

    Several logs may share one disk; each writes its own block sequence.
    ``query_id`` names a lineage log's query (``None`` for the WAL).
    """

    def __init__(self, disk: Disk, query_id: Optional[int] = None):
        self.disk = disk
        self.query_id = query_id
        self.records: List[Any] = []
        #: Index of the last flushed record (-1: nothing flushed).
        self.flushed = -1
        self.blocks_written = 0
        self.fail_next_flush = False
        self.fail_transient = True
        self.tear_next_flush = False

    def append(self, record: Any) -> int:
        """Seal and buffer *record*; returns its index in the log."""
        self.records.append(seal(record))
        return len(self.records) - 1

    def flush(self, up_to: Optional[int] = None) -> Generator:
        """Coroutine: make the log durable through index *up_to* (default:
        the tail).  Returns the blocks written (0: nothing was pending)."""
        target = len(self.records) - 1 if up_to is None else up_to
        if target <= self.flushed:
            return 0
        if self.fail_next_flush:
            self.fail_next_flush = False
            raise LogWriteError(self.query_id, transient=self.fail_transient)
        blocks = -(-(target - self.flushed) // RECORDS_PER_BLOCK)
        for _ in range(blocks):
            yield from self.disk.write(0, self.blocks_written)
            self.blocks_written += 1
        if self.tear_next_flush:
            # The tail record's body is on the device, its checksum is not.
            self.tear_next_flush = False
            tail = self.records[target]
            self.records[target] = replace(
                tail, checksum=tail.checksum ^ 0xDEADBEEF
            )
        self.flushed = target
        return blocks

    def durable(self) -> List[Any]:
        """What a crash leaves: the flushed records, cut strictly before
        the first one whose checksum fails."""
        out = self.records[: self.flushed + 1]
        for i, record in enumerate(out):
            if checksum(record) != record.checksum:
                return out[:i]
        return out

    def crash(self) -> None:
        """Drop everything a crash loses: the volatile and torn records."""
        self.records = self.durable()
        self.flushed = len(self.records) - 1

    def serialize(self) -> str:
        """Deterministic JSONL of every record (determinism tests)."""
        return "\n".join(
            json.dumps(vars(r), sort_keys=True, separators=(",", ":"),
                       default=str)
            for r in self.records
        )
