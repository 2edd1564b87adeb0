"""Volcano-style iterator operators.

Every operator exposes one coroutine, ``next_batch()``, which yields
simulation events (disk reads, CPU bursts) and returns either a non-empty
list of rows or ``None`` at end-of-stream.  Pull-based: the parent drives.

Leaves and pipeline breakers (scans, sort, the joins, aggregation, DML)
are the classes below; streaming operators are stages
(:mod:`repro.relational.stages`) run by :class:`ChainOp`.
:func:`build_operator` builds one operator per leaf or breaker and fuses
each maximal run of streaming nodes above one into a single chain, so a
batch crosses one coroutine frame per run rather than one per operator.

An operator here is a *schedule*: when it pulls, which page it reads,
what it charges.  The row work -- expression kernels, the run merge,
the merge-join cursors, RID runs, the DML page loop -- lives in
sim-free bodies (:mod:`repro.relational`, :mod:`repro.storage`) that the
packet micro-engines drive too.

These operators double as the *correctness reference* for the QPipe
micro-engines -- the integration tests require both engines to produce
identical result sets for the same plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.hw.host import Host
from repro.relational import BATCH_ROWS, compile
from repro.relational.joins import MergeCursor, cross, next_match
from repro.relational.plans import (
    Aggregate,
    DeleteRows,
    GroupBy,
    HashJoin,
    IndexScan,
    InsertRows,
    MergeJoin,
    NLJoin,
    PlanNode,
    Sort,
    TableScan,
    UpdateRows,
)
from repro.relational.schema import Schema
from repro.relational.sort import RunMerge, sort_comparisons
from repro.relational.stages import (
    PROBES,
    STREAMING,
    LimitStage,
    Stage,
    build_stage,
)
from repro.storage.manager import StorageManager
from repro.storage.page import rid_runs
from repro.storage.streams import next_stream


@dataclass
class ExecContext:
    """Per-query execution context: storage, host, and memory budget."""

    sm: StorageManager
    host: Host
    #: Work-memory budget in tuples (sort heaps, hash tables); models the
    #: paper's "each client is given 128MB of memory".
    work_mem_tuples: int = 50_000
    #: Query identity, used as the lock owner for updates.
    owner: Any = None
    #: Optional :class:`~repro.lineage.tracker.LineageTracker`; scan
    #: operators report delivered pages through it (None: no recording).
    lineage: Any = None
    #: Live temp files (spill runs, hash partitions) this query created
    #: and has not yet dropped; the engine's fault teardown sweeps them.
    temp_files: List[Any] = field(default_factory=list)

    def cpu(self, tuples: int) -> Generator:
        """Coroutine: charge CPU for processing *tuples* tuples.

        Hands back the burst itself, so a charge is one generator frame.
        """
        host = self.host
        return host.cpu.burst(tuples * host.config.cpu_per_tuple)

    def track_temp(self, temp) -> Any:
        """Register a freshly created temp file for fault-path cleanup."""
        self.temp_files.append(temp)
        return temp

    def drop_temp(self, temp) -> None:
        """Drop a temp file and unregister it (normal-path cleanup)."""
        if temp in self.temp_files:
            self.temp_files.remove(temp)
        self.sm.drop_temp_file(temp)


class Operator:
    """Base iterator operator."""

    def __init__(self, schema: Schema):
        self.schema = schema

    def next_batch(self) -> Generator:
        """Coroutine: the next non-empty batch of rows, or None at EOS."""
        raise NotImplementedError

    def drain(self) -> Generator:
        """Coroutine: every remaining row as one list."""
        rows: List[tuple] = []
        while True:
            batch = yield from self.next_batch()
            if batch is None:
                return rows
            rows.extend(batch)


class ScanOp(Operator):
    """Full table scan with optional predicate and projection."""

    def __init__(self, ctx: ExecContext, plan: TableScan):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self.plan = plan
        self.table = plan.table
        base = ctx.sm.catalog.table_schema(plan.table)
        self._post = compile.scan(plan.predicate, plan.project, base)
        self._num_pages = ctx.sm.num_pages(plan.table)
        # Recovery resume: visit exactly the unconsumed page suffix in
        # wrapped order; a fresh scan visits every page from 0.
        if plan.resume is None:
            self._start_page = 0
            self._pages_left = self._num_pages
        else:
            self._start_page, self._pages_left = plan.resume
        self._visited = 0
        # Constant for the op's lifetime, like id(self) was -- but never
        # reused by a later scan (see repro.storage.streams).
        self._stream = next_stream()

    def next_batch(self):
        while self._visited < self._pages_left:
            block = (self._start_page + self._visited) % self._num_pages
            page = yield from self.ctx.sm.read_table_page(
                self.table, block, scan=True, stream=self._stream
            )
            self._visited += 1
            rows = page.rows()
            yield from self.ctx.cpu(len(rows))
            rows = self._post(rows)
            if self.ctx.lineage is not None:
                self.ctx.lineage.scan_page(
                    self._stream, self.table, block, len(rows),
                    self._num_pages,
                )
            if rows:
                return rows
        return None


class IndexScanOp(Operator):
    """Index scan: probe the B+tree for RIDs, then fetch rows.

    Phase one builds the full matching RID list (the paper's unclustered
    scan); phase two fetches pages.  With ``ordered=True`` rows come out
    in key order; otherwise RIDs are sorted by page number first to visit
    each page once, sequentially.
    """

    def __init__(self, ctx: ExecContext, plan: IndexScan):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self.plan = plan
        self._info = ctx.sm.catalog.index(plan.table, plan.index)
        self._post = compile.scan(
            plan.predicate, plan.project, self._info.schema
        )
        self._runs = None  # unclustered: the RID list's page visits
        self._page_no: Optional[int] = None  # clustered: next heap page
        self._stopped = False
        self._stream = next_stream()

    def _next_clustered_batch(self):
        """Clustered path: one tree descent, then a sequential, key-
        ordered heap read ("similar to file scans", section 3.2)."""
        plan = self.plan
        sm = self.ctx.sm
        if self._page_no is None:
            self._page_no = yield from sm.clustered_start_page(
                plan.table, plan.index, plan.lo
            )
        num_pages = sm.num_pages(plan.table)
        while not self._stopped and self._page_no < num_pages:
            page = yield from sm.read_table_page(
                plan.table, self._page_no, scan=True, stream=self._stream
            )
            self._page_no += 1
            rows = page.rows()
            yield from self.ctx.cpu(len(rows))
            rows = self._info.clip(rows, plan.lo, plan.hi)
            if rows is None:
                self._stopped = True
                return None
            rows = self._post(rows)
            if rows:
                return rows
        return None

    def next_batch(self):
        plan = self.plan
        sm = self.ctx.sm
        if self._info.clustered:
            batch = yield from self._next_clustered_batch()
            return batch
        if self._runs is None:
            pairs = yield from sm.index_range(
                plan.table, plan.index, plan.lo, plan.hi
            )
            rids = [rid for _key, rid in pairs]
            if not plan.ordered:
                rids.sort()  # ascending page number: one visit per page
            self._runs = rid_runs(rids, 0, len(rids))
        for block, slots, _end in self._runs:
            page = yield from sm.read_table_page(
                plan.table, block, scan=True, stream=self._stream
            )
            group = page.live(slots)
            yield from self.ctx.cpu(len(group))
            out = self._post(group)
            if out:
                return out
        return None


class ChainOp(Operator):
    """A run of streaming operators over one source, in one frame.

    Per source batch: each stage's CPU charge, then its transformation
    (:mod:`repro.relational.stages`), re-pulling the source when a batch
    empties and never again once a LIMIT is satisfied.  That is also the
    schedule of the same stages stacked as one-stage chains -- an upper
    operator is charged only for batches that reach it -- so how many
    nodes share a chain moves no simulated event, and
    :func:`build_operator` can fuse each maximal run into one.
    """

    def __init__(self, ctx: ExecContext, source: Operator, plans):
        """*plans*: the streaming plan nodes over *source*, innermost
        first."""
        self.ctx = ctx
        self.source = source
        self.stages: List[Stage] = []
        #: Per stage, a probe's right-input operator (None otherwise).
        self._rights: List[Optional[Operator]] = []
        schema = source.schema
        for plan in plans:
            right = (
                build_operator(plan.right, ctx)
                if isinstance(plan, PROBES) else None
            )
            self.stages.append(
                build_stage(plan, schema, right.schema if right else None)
            )
            self._rights.append(right)
            schema = plan.output_schema(ctx.sm.catalog)
        super().__init__(schema)
        self._limits = [s for s in self.stages if isinstance(s, LimitStage)]
        self._opened = False

    def _open(self):
        """Coroutine, first pull only: the way down a stack of one-stage
        chains, outermost stage first.  A LIMIT satisfied before it has
        emitted anything (``LIMIT 0``) stops the descent, so nothing
        below it runs; a probe stage drains its right input into its
        key set or hash table."""
        for stage, right in zip(reversed(self.stages), reversed(self._rights)):
            if stage.finished:
                return
            if right is not None:
                while True:
                    batch = yield from right.next_batch()
                    if batch is None:
                        break
                    yield from self.ctx.cpu(len(batch))
                    stage.build(batch)

    def next_batch(self):
        if not self._opened:
            self._opened = True
            yield from self._open()
        ctx = self.ctx
        while True:
            for limit in self._limits:
                if limit.finished:
                    return None
            batch = yield from self.source.next_batch()
            if batch is None:
                return None
            for stage in self.stages:
                if stage.charged:
                    yield from ctx.cpu(len(batch))
                batch = stage.apply(batch)
                if not batch:
                    break
            else:
                return batch


class SortOp(Operator):
    """External merge sort with a work-memory budget.

    Runs of ``work_mem_tuples`` rows are sorted in memory and spilled to
    temp files; a final k-way merge (:class:`RunMerge`) streams the
    result a batch at a time, charged per batch.  When the input fits in
    memory no temp I/O is charged and the result is one batch.
    """

    def __init__(self, ctx: ExecContext, plan: Sort, child: Operator):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self.child = child
        self.keys = plan.keys
        self.descending = plan.descending
        self._key = child.schema.key_of(plan.keys)
        self._sorted: Optional[List[tuple]] = None  # in-memory path
        self._merge: Optional[RunMerge] = None  # external path
        self._runs: List = []
        self._done = False

    def _sort(self, rows: List[tuple]) -> Generator:
        yield from self.ctx.cpu(sort_comparisons(len(rows)))
        rows.sort(key=self._key, reverse=self.descending)

    def _build(self):
        budget = self.ctx.work_mem_tuples
        buffer: List[tuple] = []
        while True:
            batch = yield from self.child.next_batch()
            if batch is None:
                break
            buffer.extend(batch)
            if len(buffer) >= budget:
                yield from self._spill(buffer)
                buffer = []
        if not self._runs:
            yield from self._sort(buffer)
            self._sorted = buffer
            return
        if buffer:
            yield from self._spill(buffer)
        self._merge = RunMerge(
            [run.num_pages for run in self._runs], self._key, self.descending
        )

    def _spill(self, rows: List[tuple]):
        yield from self._sort(rows)
        # Born tracked: an interrupt landing inside write_run must leave
        # the run visible to the fault-teardown sweep.
        run = self.ctx.track_temp(
            self.ctx.sm.create_temp_file(
                self.schema.row_width, label="sortrun"
            )
        )
        yield from self.ctx.sm.write_run(run, rows)
        self._runs.append(run)

    def next_batch(self):
        if self._done:
            return None
        if self._sorted is None and self._merge is None:
            yield from self._build()
        if self._sorted is not None:
            self._done = True
            return self._sorted or None
        out = yield from self._merge.pull(
            self.ctx.sm.read_temp_page, self._runs, BATCH_ROWS
        )
        if len(out) < BATCH_ROWS:
            self._done = True
            for run in self._runs:
                self.ctx.drop_temp(run)
        if out:
            yield from self.ctx.cpu(len(out))
        return out or None


class HashJoinOp(Operator):
    """Hash join: build on the left input, probe with the right.

    When the build side exceeds the memory budget, both sides are
    partitioned to temp files (Grace-style) and partition pairs are
    joined in memory.
    """

    def __init__(self, ctx: ExecContext, plan: HashJoin,
                 left: Operator, right: Operator):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self.left = left
        self.right = right
        self._hash_insert = compile.hash_build(plan.left_key, left.schema)
        self._hash_probe = compile.hash_probe(
            plan.right_key, right.schema, "inner"
        )
        self._lsplit = compile.partition(plan.left_key, left.schema)
        self._rsplit = compile.partition(plan.right_key, right.schema)
        self._table: Optional[Dict] = None
        self._partitioned = False
        self._lparts: List = []
        self._rparts: List = []
        self._part_iter = None
        self._pending = iter(())  # BATCH_ROWS slices of a partition's join
        self._done = False

    def _build(self):
        budget = self.ctx.work_mem_tuples
        table: Dict = {}
        count = 0
        overflow: List[tuple] = []
        while True:
            batch = yield from self.left.next_batch()
            if batch is None:
                break
            yield from self.ctx.cpu(len(batch))
            count += len(batch)
            if count > budget and not self._partitioned:
                self._partitioned = True
            if self._partitioned:
                overflow.extend(batch)
            else:
                self._hash_insert(table, batch)
        if not self._partitioned:
            self._table = table
            return
        # Spill: rows already hashed plus the overflow go to partitions.
        all_rows = compile.table_rows(table)
        del table
        all_rows.extend(overflow)
        nparts = max(
            2, -(-len(all_rows) // max(1, self.ctx.work_mem_tuples // 2))
        )
        self._lparts = yield from self._partition(
            all_rows, self._lsplit, nparts, "hjL"
        )
        rrows = yield from self.right.drain()
        self._rparts = yield from self._partition(
            rrows, self._rsplit, nparts, "hjR"
        )
        self._part_iter = iter(range(nparts))

    def _partition(self, rows, split, nparts, label):
        buckets = split(rows, nparts)
        yield from self.ctx.cpu(len(rows))
        parts = []
        for bucket in buckets:
            # Born tracked, so a fault mid-write leaves no orphan file.
            part = self.ctx.track_temp(
                self.ctx.sm.create_temp_file(64, label=label)
            )
            yield from self.ctx.sm.write_run(part, bucket)
            parts.append(part)
        return parts

    def _read_part(self, part):
        rows: List[tuple] = []
        for block in range(part.num_pages):
            page = yield from self.ctx.sm.read_temp_page(part, block)
            rows.extend(page.rows())
        return rows

    def next_batch(self):
        if self._done:
            return None
        if self._table is None and not self._partitioned:
            yield from self._build()
        if not self._partitioned:
            while True:
                batch = yield from self.right.next_batch()
                if batch is None:
                    self._done = True
                    return None
                yield from self.ctx.cpu(len(batch))
                out = self._hash_probe(self._table, batch)
                if out:
                    return out
        # Partitioned path: join one partition pair at a time.
        while True:
            out = next(self._pending, None)
            if out is not None:
                return out
            try:
                p = next(self._part_iter)
            except StopIteration:
                self._done = True
                for part in self._lparts + self._rparts:
                    self.ctx.drop_temp(part)
                return None
            lrows = yield from self._read_part(self._lparts[p])
            rrows = yield from self._read_part(self._rparts[p])
            yield from self.ctx.cpu(len(lrows) + len(rrows))
            table: Dict = {}
            self._hash_insert(table, lrows)
            joined = self._hash_probe(table, rrows)
            self._pending = (
                joined[i:i + BATCH_ROWS]
                for i in range(0, len(joined), BATCH_ROWS)
            )


class MergeJoinOp(Operator):
    """Merge join over inputs already sorted on the join keys: one
    matched pair of duplicate groups per batch."""

    def __init__(self, ctx: ExecContext, plan: MergeJoin,
                 left: Operator, right: Operator):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self._left = MergeCursor(
            left.next_batch, left.schema.key_of([plan.left_key])
        )
        self._right = MergeCursor(
            right.next_batch, right.schema.key_of([plan.right_key])
        )
        self._done = False

    def next_batch(self):
        if self._done:
            return None
        match = yield from next_match(self._left, self._right)
        if match is None:
            self._done = True
            return None
        lgroup, rgroup = match
        yield from self.ctx.cpu(len(lgroup) * len(rgroup))
        return cross(lgroup, rgroup)


class NLJoinOp(Operator):
    """Block nested-loop join: the right side is materialised to a temp
    file once, then rescanned for every left batch."""

    def __init__(self, ctx: ExecContext, plan: NLJoin,
                 left: Operator, right: Operator):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self.left = left
        self.right = right
        self._matching = compile.filter(plan.predicate, self.schema)
        self._right_mat = None
        self._done = False

    def _materialise_right(self):
        rows = yield from self.right.drain()
        # Born tracked: a fault inside write_run must not orphan the
        # materialisation (the teardown sweep drops tracked temps).
        mat = self.ctx.track_temp(
            self.ctx.sm.create_temp_file(
                self.right.schema.row_width, label="nlj"
            )
        )
        yield from self.ctx.sm.write_run(mat, rows)
        self._right_mat = mat

    def next_batch(self):
        if self._done:
            return None
        if self._right_mat is None:
            yield from self._materialise_right()
        while True:
            batch = yield from self.left.next_batch()
            if batch is None:
                self._done = True
                self.ctx.drop_temp(self._right_mat)
                return None
            out: List[tuple] = []
            for block in range(self._right_mat.num_pages):
                page = yield from self.ctx.sm.read_temp_page(
                    self._right_mat, block
                )
                rrows = page.rows()
                yield from self.ctx.cpu(len(batch) * len(rrows))
                out += self._matching(cross(batch, rrows))
            if out:
                return out


class AggregateOp(Operator):
    """Single-group aggregation: drains the child, emits one row."""

    def __init__(self, ctx: ExecContext, plan: Aggregate, child: Operator):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self.child = child
        self.specs = list(plan.aggs)
        self._fold = compile.agg_update(plan.aggs, child.schema)
        self._done = False

    #: Consumed input batches between lineage checkpoints of the
    #: accumulator state (one batch per non-empty scan page upstream).
    CHECKPOINT_EVERY = 8

    def next_batch(self):
        if self._done:
            return None
        states = [spec.make_state() for spec in self.specs]
        lineage = self.ctx.lineage
        consumed = 0
        batches = 0
        while True:
            batch = yield from self.child.next_batch()
            if batch is None:
                break
            yield from self.ctx.cpu(len(batch) * len(states))
            self._fold(states, batch)
            consumed += len(batch)
            batches += 1
            if lineage is not None and batches % self.CHECKPOINT_EVERY == 0:
                yield from lineage.checkpoint(
                    consumed,
                    [(s.count, s.total, s.best) for s in states],
                )
        self._done = True
        return [tuple(state.result() for state in states)]


class GroupByOp(Operator):
    """Hash grouping: drains the child, emits one row per group."""

    def __init__(self, ctx: ExecContext, plan: GroupBy, child: Operator):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self.child = child
        self.specs = list(plan.aggs)
        self._fold = compile.group_update(
            plan.aggs, plan.group_cols, child.schema
        )
        self._result: Optional[List[tuple]] = None
        self._cursor = 0

    def _consume(self):
        groups: Dict[tuple, list] = {}
        while True:
            batch = yield from self.child.next_batch()
            if batch is None:
                break
            yield from self.ctx.cpu(len(batch) * max(1, len(self.specs)))
            self._fold(groups, batch)
        self._result = [
            key + tuple(state.result() for state in states)
            for key, states in sorted(groups.items())
        ]

    def next_batch(self):
        if self._result is None:
            yield from self._consume()
        if self._cursor >= len(self._result):
            return None
        out = self._result[self._cursor:self._cursor + BATCH_ROWS]
        self._cursor += len(out)
        return out


class DmlOp(Operator):
    """INSERT / UPDATE / DELETE under an exclusive table lock (section
    4.3.4): one row, the count of rows affected."""

    def __init__(self, ctx: ExecContext, plan: PlanNode):
        super().__init__(plan.output_schema(ctx.sm.catalog))
        self.ctx = ctx
        self.plan = plan
        self._done = False

    def next_batch(self):
        if self._done:
            return None
        self._done = True
        affected = yield from self.ctx.sm.apply_dml(
            self.plan, self.ctx.owner or next_stream()
        )
        return [(affected,)]


def _build_breaker(plan: PlanNode, ctx: ExecContext) -> Operator:
    """The operator for one leaf or pipeline breaker over its inputs."""
    if isinstance(plan, TableScan):
        return ScanOp(ctx, plan)
    if isinstance(plan, IndexScan):
        return IndexScanOp(ctx, plan)
    if isinstance(plan, Sort):
        return SortOp(ctx, plan, build_operator(plan.child, ctx))
    if isinstance(plan, HashJoin):
        return HashJoinOp(ctx, plan, build_operator(plan.left, ctx),
                          build_operator(plan.right, ctx))
    if isinstance(plan, MergeJoin):
        return MergeJoinOp(ctx, plan, build_operator(plan.left, ctx),
                           build_operator(plan.right, ctx))
    if isinstance(plan, NLJoin):
        return NLJoinOp(ctx, plan, build_operator(plan.left, ctx),
                        build_operator(plan.right, ctx))
    if isinstance(plan, Aggregate):
        return AggregateOp(ctx, plan, build_operator(plan.child, ctx))
    if isinstance(plan, GroupBy):
        return GroupByOp(ctx, plan, build_operator(plan.child, ctx))
    if isinstance(plan, (InsertRows, UpdateRows, DeleteRows)):
        return DmlOp(ctx, plan)
    raise TypeError(f"no iterator operator for {type(plan).__name__}")


def build_operator(plan: PlanNode, ctx: ExecContext) -> Operator:
    """Compile a logical plan tree into an iterator operator tree.

    Every leaf and pipeline breaker is one operator; a maximal run of
    streaming nodes (filter, project, limit, distinct, the probe side of
    semi/anti/outer joins) above one becomes a single :class:`ChainOp`.
    The fused tree issues exactly the storage-manager calls and CPU
    charges a chain per node would, in the same order (see ``ChainOp``).
    """
    run = []
    while isinstance(plan, STREAMING):
        run.append(plan)
        plan = plan.children[0]
    source = _build_breaker(plan, ctx)
    if not run:
        return source
    # Outer probe builds run before inner ones, as in a stack of
    # one-stage chains: ChainOp opens its stages outermost first.
    return ChainOp(ctx, source, run[::-1])
