"""Per-query lineage tracking: input pages -> emitted batch frontiers.

A :class:`LineageTracker` rides along one query execution.  Scan
operators report every input page they deliver (in wrapped circular-scan
order) through :meth:`scan_page`; the engine's root pull loop reports
every emitted batch through :meth:`on_root_batch`.  From the two streams
the tracker derives the **recovery frontier**: the longest prefix of
input pages whose output the client has already received, which is
exactly the work a resumed query may skip.

The tracker is deliberately conservative.  It understands two plan
shapes well enough to resume them -- a bare :class:`TableScan` (page
resume) and ``Aggregate(TableScan)`` (checkpoint resume) -- and for
everything else it records nothing and recovery degrades to a clean
restart, which is always correct.  Any surprise in the page stream
(wrong table, non-contiguous page, more pages than the table holds)
marks the tracker *broken* and likewise degrades to restart: lineage is
an optimisation, never a correctness dependency.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.faults.errors import LogWriteError
from repro.relational.plans import Aggregate, TableScan
from repro.storage.log import LogDevice

#: A ``batch`` record is flushed every this many appends; a
#: ``checkpoint`` is flushed at once.
FLUSH_EVERY = 4


@dataclass(frozen=True)
class LineageRecord:
    """One lineage log entry, sealed by :func:`repro.storage.log.checksum`.

    ``kind`` is ``batch`` (the query's root output reached ``rows``
    rows, wholly produced by ``pages`` input pages starting at
    ``first_page`` in wrapped scan order) or ``checkpoint`` (a stateful
    operator serialised its accumulator state in ``payload`` at an input
    frontier of ``rows`` child rows / ``pages`` pages).
    """

    seq: int
    kind: str
    rows: int
    table: Optional[str]
    first_page: Optional[int]
    pages: Optional[int]
    payload: Any = None
    checksum: int = 0


def resume_shape(plan) -> Optional[str]:
    """Which resume strategy fits ``plan``: ``scan``, ``agg`` or None."""
    if isinstance(plan, TableScan):
        return "scan"
    if isinstance(plan, Aggregate) and isinstance(plan.child, TableScan):
        return "agg"
    return None


class LineageTracker:
    """Tracks one query's input-page / output-row lineage."""

    def __init__(self, sim, log: LogDevice, plan):
        self.sim = sim
        self.log = log
        self.query_id = log.query_id
        self.mode = resume_shape(plan)
        #: Rows the client has received so far (survives a server-side
        #: crash: the client keeps its prefix and asks for the rest).
        self.received: List[tuple] = []
        self.rows = 0
        #: False once the lineage log is unusable (log write error):
        #: the query keeps running, recovery degrades to clean restart.
        self.enabled = True
        # -- the tracked scan stream (single table, wrapped order) -----
        self.table: Optional[str] = None
        self.first_page: Optional[int] = None
        self.num_pages: Optional[int] = None
        self._stream: Optional[tuple] = None
        #: rows_out per delivered page, in delivery order.
        self._page_rows: List[int] = []
        #: cumulative rows_out (``_cum[i]`` = rows after page ``i``).
        self._cum: List[int] = []
        self.broken = False
        self._last_k = 0
        self._since_flush = 0
        self._torn_reported = False

    # ------------------------------------------------------------------
    # Scan side (host-side, called from scan operators; no sim yields)
    # ------------------------------------------------------------------
    def scan_page(
        self, stream, table: str, page_no: int, rows_out: int,
        num_pages: int,
    ) -> None:
        """Record one delivered input page (post-filter ``rows_out``).

        Pages must arrive in wrapped circular order starting wherever the
        consumer attached; any deviation marks the tracker broken.
        """
        if self.broken or self.mode is None:
            return
        if self.table is None:
            self.table = table
            self.first_page = page_no
            self.num_pages = num_pages
            self._stream = stream
        else:
            if table != self.table or num_pages != self.num_pages:
                self.broken = True
                return
            if len(self._page_rows) >= num_pages:
                # A full pass already delivered every page once.
                self.broken = True
                return
            expected = (self.first_page + len(self._page_rows)) % num_pages
            if page_no != expected:
                self.broken = True
                return
            # A new stream continuing at the expected page is a resumed
            # scan picking up the frontier -- adopt it.
            self._stream = stream
        self._page_rows.append(rows_out)
        self._cum.append((self._cum[-1] if self._cum else 0) + rows_out)

    def frontier(self) -> Optional[tuple]:
        """``(pages, covered_rows)``: the longest page prefix whose
        output is wholly contained in the rows delivered so far."""
        if self.broken or self.table is None:
            return None
        k = bisect.bisect_right(self._cum, self.rows)
        covered = self._cum[k - 1] if k else 0
        return (k, covered)

    # ------------------------------------------------------------------
    # Root side (client coroutine context; may yield for log flushes)
    # ------------------------------------------------------------------
    def on_root_batch(self, batch) -> Generator:
        """Coroutine: the query root emitted ``batch`` to the client."""
        self.received.extend(batch)
        self.rows += len(batch)
        if not self.enabled or self.mode != "scan":
            return
        fr = self.frontier()
        if fr is None:
            return
        k, covered = fr
        if k <= self._last_k:
            return
        self._last_k = k
        self._append("batch", covered, k)
        self._since_flush += 1
        if self._since_flush >= FLUSH_EVERY:
            yield from self._flush()

    def checkpoint(self, consumed: int, payload: Any) -> Generator:
        """Coroutine: a stateful breaker snapshotted its accumulator
        state after ``consumed`` child rows.  Recorded (and immediately
        flushed) only when ``consumed`` lands exactly on a page
        boundary of the tracked scan, so the resumed scan can replay
        precisely the unconsumed suffix."""
        if not self.enabled or self.mode != "agg" or self.broken:
            return
        if self.table is None:
            return
        k = bisect.bisect_right(self._cum, consumed)
        if k == 0 or self._cum[k - 1] != consumed:
            return
        self._append("checkpoint", consumed, k, payload)
        yield from self._flush()

    # ------------------------------------------------------------------
    # The log (these, not the device, emit the lineage.* trace events)
    # ------------------------------------------------------------------
    def _append(self, kind: str, rows: int, pages: int,
                payload: Any = None) -> None:
        seq = self.log.append(LineageRecord(
            len(self.log.records), kind, rows, self.table, self.first_page,
            pages, payload,
        ))
        self.sim.tracer.lineage("append", query=self.query_id, seq=seq,
                                kind=kind)

    def _flush(self) -> Generator:
        self._since_flush = 0
        try:
            blocks = yield from self.log.flush()
        except LogWriteError:
            self.enabled = False
            self.sim.tracer.lineage(
                "disabled", query=self.query_id, reason="log write error"
            )
            return
        if blocks:
            self.sim.tracer.lineage("flush", query=self.query_id,
                                    upto=self.log.flushed, blocks=blocks)

    def durable(self) -> List[LineageRecord]:
        """The log's durable prefix; reports the first tear it meets."""
        durable = self.log.durable()
        if len(durable) <= self.log.flushed and not self._torn_reported:
            self._torn_reported = True
            self.sim.tracer.lineage("torn", query=self.query_id,
                                    seq=len(durable))
        return durable

    # ------------------------------------------------------------------
    # Recovery support
    # ------------------------------------------------------------------
    def rebase(self, kept_rows: int, kept_pages: int) -> None:
        """Truncate to a durable frontier before a resumed attempt:
        keep ``kept_rows`` delivered rows and ``kept_pages`` pages; the
        resumed scan's first page must continue the kept prefix."""
        del self.received[kept_rows:]
        self.rows = kept_rows
        del self._page_rows[kept_pages:]
        self._cum = self._cum[:kept_pages]
        self.broken = False
        self._last_k = kept_pages
        self._since_flush = 0

    def reset(self) -> None:
        """Forget everything before a clean restart."""
        self.received = []
        self.rows = 0
        self.table = None
        self.first_page = None
        self.num_pages = None
        self._stream = None
        self._page_rows = []
        self._cum = []
        self.broken = False
        self._last_k = 0
        self._since_flush = 0
