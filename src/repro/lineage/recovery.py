"""Mid-query recovery: resume a crashed query from its lineage frontier.

:class:`RecoveryManager` wraps an engine's ``execute`` with a retry loop
that consults the query's durable lineage log after a fault instead of
blindly restarting:

* **scan resume** -- for a bare :class:`TableScan`, the last durable
  ``batch`` record names a page frontier the client already holds the
  output of.  The retry scans only the unconsumed suffix (a
  ``resume=(start, count)`` scan continuing the wrapped circular order)
  and the client stitches its kept prefix to the suffix rows.
* **checkpoint resume** -- for ``Aggregate(TableScan)``, the last durable
  ``checkpoint`` record carries the accumulator snapshot; the retry
  restores it, replays only the unconsumed page suffix through the
  engine, and folds the suffix rows into the restored states.
* **clean restart** -- everything else, or whenever the log is torn,
  disabled or empty.  Always correct; saves nothing.

The client-visible contract: the recovered result is byte-identical to
the fault-free run's result, for every fault schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

from repro.faults.errors import FaultError
from repro.lineage.tracker import LineageTracker, resume_shape
from repro.relational import compile
from repro.relational.plans import TableScan
from repro.sim.errors import Interrupted
from repro.storage.log import LogDevice, log_disk

#: Attempts one :meth:`RecoveryManager.run` makes before the fault that
#: ended the last one propagates.
MAX_ATTEMPTS = 5


@dataclass
class RecoveryReport:
    """Outcome of one recovered query execution."""

    query_id: int
    rows: List[tuple]
    attempts: int = 1
    recoveries: int = 0
    clean_restarts: int = 0
    pages_saved: int = 0
    pages_total: int = 0
    log: Any = None
    events: List[str] = field(default_factory=list)


def _resumed_scan(scan: TableScan, start: int, count: int) -> TableScan:
    """Clone ``scan`` as a resumed suffix scan."""
    return TableScan(
        table=scan.table,
        predicate=scan.predicate,
        project=scan.project,
        ordered=scan.ordered,
        alias=scan.alias,
        resume=(start, count),
    )


class RecoveryManager:
    """Wraps one engine with lineage recording and mid-query recovery.

    One manager serves many queries; each :meth:`run` call gets its own
    lineage :class:`~repro.storage.log.LogDevice` on the manager's shared
    (sequential, seek-free) log disk, the device the WAL uses.
    """

    def __init__(self, engine, injector=None):
        self.engine = engine
        self.sm = engine.sm
        self.sim = engine.sm.sim
        self.injector = injector
        self.device = log_disk(self.sm, "lineage-log")
        self.logs: dict = {}
        self._next_log = 0
        # Aggregate stats across every query this manager ran.
        self.recoveries = 0
        self.clean_restarts = 0
        self.pages_saved = 0

    # ------------------------------------------------------------------
    def run(self, plan) -> Generator:
        """Coroutine: execute ``plan`` with recovery; returns a
        :class:`RecoveryReport` whose ``rows`` match the fault-free run."""
        self._next_log += 1
        lid = self._next_log
        log = LogDevice(self.device, query_id=lid)
        self.logs[lid] = log
        if self.injector is not None:
            self.injector.register_lineage_log(log)
        tracker = LineageTracker(self.sim, log, plan)
        shape = resume_shape(plan)
        report = RecoveryReport(query_id=lid, rows=[], log=log)
        if shape is not None:
            scan = plan if shape == "scan" else plan.child
            report.pages_total = self.sm.num_pages(scan.table)
        attempt = 0
        resume: Optional[dict] = None
        while True:
            attempt += 1
            report.attempts = attempt
            try:
                if resume is None:
                    result = yield from self.engine.execute(
                        plan, lineage=tracker
                    )
                    rows = result.rows
                elif resume["mode"] == "scan":
                    child = _resumed_scan(
                        plan, resume["start"], resume["count"]
                    )
                    yield from self.engine.execute(child, lineage=tracker)
                    # Kept prefix (rebased) + suffix, stitched by the
                    # tracker's received list in delivery order.
                    rows = list(tracker.received)
                else:  # "agg"
                    child = _resumed_scan(
                        plan.child, resume["start"], resume["count"]
                    )
                    result = yield from self.engine.execute(
                        child, lineage=tracker
                    )
                    rows = yield from self._finish_agg(
                        plan, resume["payload"], result.rows
                    )
            except (FaultError, Interrupted) as exc:
                if attempt >= MAX_ATTEMPTS:
                    raise
                report.events.append(f"fault: {exc}")
                resume = self._decide(plan, shape, tracker, log,
                                      report, attempt)
                continue
            report.rows = rows
            return report

    # ------------------------------------------------------------------
    def _decide(self, plan, shape, tracker: LineageTracker,
                log: LogDevice, report: RecoveryReport,
                attempt: int) -> Optional[dict]:
        """Consult the durable lineage and pick the next attempt's mode."""
        durable = tracker.durable()
        if shape == "scan":
            recs = [r for r in durable
                    if r.kind == "batch" and r.pages and r.table]
            if recs:
                rec = recs[-1]
                num_pages = self.sm.num_pages(rec.table)
                start = (rec.first_page + rec.pages) % num_pages
                count = num_pages - rec.pages
                tracker.rebase(rec.rows, rec.pages)
                self.recoveries += 1
                report.recoveries += 1
                report.pages_saved = rec.pages
                self.pages_saved += rec.pages
                self.sim.tracer.lineage(
                    "recover", query=log.query_id, mode="scan",
                    position=start, pages_saved=rec.pages,
                    rows_kept=rec.rows, attempt=attempt,
                )
                if count == 0:
                    # Every page was already delivered; resume degrades
                    # to an empty suffix -- nothing left to scan, but we
                    # still run the (zero-page) resumed scan for uniform
                    # control flow.
                    pass
                return {"mode": "scan", "start": start, "count": count}
        elif shape == "agg":
            cps = [r for r in durable
                   if r.kind == "checkpoint" and r.table]
            if cps:
                rec = cps[-1]
                num_pages = self.sm.num_pages(rec.table)
                start = (rec.first_page + rec.pages) % num_pages
                count = num_pages - rec.pages
                # The received rows of a failed (resumed) attempt are
                # scan-child rows, not query output: drop them, keep the
                # page-frontier prefix so contiguity checking continues.
                tracker.rebase(0, rec.pages)
                self.recoveries += 1
                report.recoveries += 1
                report.pages_saved = rec.pages
                self.pages_saved += rec.pages
                self.sim.tracer.lineage(
                    "recover", query=log.query_id, mode="agg",
                    position=start, pages_saved=rec.pages,
                    rows_kept=rec.rows, attempt=attempt,
                )
                return {"mode": "agg", "start": start, "count": count,
                        "payload": rec.payload}
        # Clean restart: always correct, saves nothing.
        tracker.reset()
        self.clean_restarts += 1
        report.clean_restarts += 1
        report.pages_saved = 0
        reason = "no usable lineage" if shape else "plan not resumable"
        self.sim.tracer.lineage(
            "restart", query=log.query_id, attempt=attempt, reason=reason
        )
        return None

    # ------------------------------------------------------------------
    def _finish_agg(self, plan, payload, suffix_rows) -> Generator:
        """Restore checkpointed accumulators, fold the replayed suffix,
        emit the single aggregate row (host-side fold, CPU charged at
        the engine's per-tuple rate)."""
        child_schema = plan.child.output_schema(self.sm.catalog)
        states = [spec.make_state() for spec in plan.aggs]
        for state, snap in zip(states, payload):
            count, total, best = snap
            state.count = count
            state.total = total
            state.best = best
        compile.agg_update(plan.aggs, child_schema)(states, suffix_rows)
        cost = (
            len(suffix_rows) * len(states)
            * self.sm.host.config.cpu_per_tuple
        )
        if cost:
            yield from self.sm.host.cpu.burst(cost)
        return [tuple(state.result() for state in states)]
