"""Plan trees compiled to push-based pipelines.

A plan is decomposed at its *pipeline breakers* (sort, aggregate, group
by, hash/merge/NL join build) into pipelines: one batch *source* plus a
chain of fused streaming stages (:mod:`repro.pushexec.fusion`).  Each
pipeline compiles to a single generator that pushes row batches upward
as ``(_BATCH, rows)`` markers interleaved with simulation events; a
breaker consumes its child pipeline through :func:`pull_batch`, which
forwards events both ways.  Where the iterator engine suspends one
coroutine frame per operator per batch, a compiled pipeline crosses one
frame per *breaker* -- the per-operator interface cost (the Channel hop
in QPipe, the ``yield from`` hop here) is fused away, per Shaikhha et
al.'s push-based loop fusion.

Equivalence contract (load-bearing -- the byte-identical-figure tests
enforce it): for every plan, a compiled pipeline issues the **exact
sequence** of storage-manager calls and CPU charges that the reference
iterator operators in :mod:`repro.baseline.operators` issue.  Each
source/breaker below is a transliteration of the corresponding operator
with the same charge points, the same batch boundaries, the same spill
thresholds and the same temp-file lifetimes.  Runtime guards (actual row
counts) make every spill decision, exactly like the iterator.
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.baseline.operators import ExecContext, SortOp, _merge_rank
from repro.pushexec import fusion
from repro.relational import compile
from repro.relational.plans import (
    Aggregate,
    AntiJoin,
    DeleteRows,
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    InsertRows,
    LeftOuterJoin,
    Limit,
    MergeJoin,
    NLJoin,
    PlanNode,
    Project,
    SemiJoin,
    Sort,
    TableScan,
    UpdateRows,
)
from repro.storage.locks import LockMode
from repro.storage.page import RID

__all__ = ["Pipeline", "compile_plan", "pull_batch"]

#: Marker tag: pipelines yield ``(_BATCH, rows)`` between simulation
#: events.  A unique sentinel object, so no sim event can collide.
_BATCH = object()

#: Circular-scan stream identities.  The iterator reference uses
#: ``id(self)`` of the live scan op; the pool only ever compares streams
#: for (in)equality, so any value that is unique per scan execution is
#: equivalent -- except that a *recycled* ``id()`` can accidentally match
#: a finished scan's leftover ring entries and turn its misses into
#: hits.  A process-global counter can never collide with a previous
#: scan, which is exactly the (observed) behaviour of the reference:
#: live op objects always have distinct ids.
_stream_ids = count(1)


def _next_stream() -> Tuple[str, int]:
    return ("pushscan", next(_stream_ids))


def pull_batch(gen) -> Generator:
    """Coroutine: resume *gen* to its next batch marker.

    Forwards every simulation event (and the kernel's replies) between
    *gen* and the caller's scheduler; returns the marker's rows, or
    ``None`` once *gen* is exhausted.  The push-side counterpart of
    ``Operator.next_batch``.
    """
    try:
        item = next(gen)
    except StopIteration:
        return None
    while True:
        if type(item) is tuple and item and item[0] is _BATCH:
            return item[1]
        value = yield item
        try:
            item = gen.send(value)
        except StopIteration:
            return None


class Pipeline:
    """One compiled pipeline: a source plus fused streaming stages.

    ``generator()`` instantiates the pipeline as a single coroutine.
    Stages hold per-query state (limit counters, distinct sets), so a
    pipeline is instantiated exactly once per execution.
    """

    __slots__ = ("ctx", "source_factory", "stages", "preludes", "schema")

    def __init__(self, ctx, source_factory, stages, preludes, schema):
        self.ctx = ctx
        self.source_factory = source_factory
        self.stages = list(stages)
        self.preludes = list(preludes)
        self.schema = schema

    def generator(self):
        if not self.stages and not self.preludes:
            return self.source_factory()
        return _drive(self.ctx, self.preludes, self.source_factory, self.stages)


def _drive(ctx, preludes, source_factory, stages):
    """The fused driver loop: one frame for the whole stage chain.

    Per source batch this replays the iterator chain's schedule: each
    stage's CPU charge, then its transformation, skipping the rest of
    the chain when a batch empties (the iterator's internal re-pull
    loops), and stopping the source once a LIMIT is satisfied.
    """
    for prelude in preludes:
        yield from prelude()
    limits = [s for s in stages if isinstance(s, fusion.LimitStage)]
    src = source_factory()
    while True:
        batch = yield from pull_batch(src)
        if batch is None:
            return
        survived = True
        for stage in stages:
            tuples = stage.cost(batch)
            if tuples:
                yield from ctx.cpu(tuples)
            batch = stage.apply(batch)
            if not batch:
                survived = False
                break
        if survived:
            yield (_BATCH, batch)
        if limits and any(stage.finished for stage in limits):
            return


# ---------------------------------------------------------------------------
# Sources: leaves (ScanOp / IndexScanOp transliterations)
# ---------------------------------------------------------------------------
def _scan_source(ctx: ExecContext, plan: TableScan) -> Callable:
    base = ctx.sm.catalog.table_schema(plan.table)
    # The hot path: predicate + projection fused into one generated
    # whole-batch comprehension (no per-row closure calls at all).
    post = compile.scan(plan.predicate, plan.project, base)
    num_pages = ctx.sm.num_pages(plan.table)
    # Recovery resume: visit exactly the unconsumed page suffix in
    # wrapped order; a fresh scan visits every page from 0.
    if plan.resume is None:
        start_page, page_count = 0, num_pages
    else:
        start_page, page_count = plan.resume

    def run():
        # A fresh counter value stands in for the iterator op's
        # id(self) as the circular-scan stream identity (see
        # _next_stream on why not id()).
        stream = _next_stream()
        for i in range(page_count):
            page_no = (start_page + i) % num_pages
            page = yield from ctx.sm.read_table_page(
                plan.table, page_no, scan=True, stream=stream
            )
            rows = page.rows()
            yield from ctx.cpu(len(rows))
            rows = post(rows)
            if ctx.lineage is not None:
                ctx.lineage.scan_page(
                    stream, plan.table, page_no, len(rows), num_pages
                )
            if rows:
                yield (_BATCH, rows)

    return run


def _index_source(ctx: ExecContext, plan: IndexScan) -> Callable:
    base = ctx.sm.catalog.table_schema(plan.table)
    info = ctx.sm.catalog.index(plan.table, plan.index)
    key_fn = ctx.sm._key_fn(base, info.key_columns)
    keep = info.key_range
    # Post-processing runs after the key-range filter.
    post = compile.scan(plan.predicate, plan.project, base)

    if info.clustered:

        def run():
            stream = _next_stream()
            sm = ctx.sm
            page_no = yield from sm.clustered_start_page(
                plan.table, plan.index, plan.lo
            )
            num_pages = sm.num_pages(plan.table)
            while page_no < num_pages:
                page = yield from sm.read_table_page(
                    plan.table, page_no, scan=True, stream=stream
                )
                page_no += 1
                rows = page.rows()
                yield from ctx.cpu(len(rows))
                if (
                    plan.hi is not None
                    and rows
                    and key_fn(rows[0]) > plan.hi
                ):
                    return
                rows = post(keep(rows, plan.lo, plan.hi))
                if rows:
                    yield (_BATCH, rows)
                    # The iterator re-reads the page count at each batch
                    # boundary; match it so concurrent growth behaves
                    # identically.
                    num_pages = sm.num_pages(plan.table)

        return run

    def run():
        stream = _next_stream()
        pairs = yield from ctx.sm.index_range(
            plan.table, plan.index, plan.lo, plan.hi
        )
        rids = [rid for _key, rid in pairs]
        if not plan.ordered:
            rids.sort()  # ascending page number: one visit per page
        cursor = 0
        out: List[tuple] = []
        while cursor < len(rids):
            block = rids[cursor].block_no
            page = yield from ctx.sm.read_table_page(
                plan.table, block, scan=True, stream=stream
            )
            group: List[tuple] = []
            while cursor < len(rids) and rids[cursor].block_no == block:
                row = page.get(rids[cursor].slot)
                if row is not None:
                    group.append(row)
                cursor += 1
            yield from ctx.cpu(len(group))
            out.extend(post(group))
            if out:
                yield (_BATCH, out)
                out = []

    return run


# ---------------------------------------------------------------------------
# Breakers (SortOp / joins / aggregation transliterations)
# ---------------------------------------------------------------------------
def _sort_source(ctx, plan: Sort, child_factory, schema) -> Callable:
    key = schema.key_of(plan.keys)
    descending = plan.descending
    rank = _merge_rank(key, len(plan.keys), descending)
    row_width = schema.row_width
    sort_factor = ctx.host.config.sort_cpu_factor

    def sort_cost(n):
        comparisons = n * max(1.0, math.log2(max(2, n)))
        yield from ctx.cpu(int(comparisons), factor=sort_factor)

    def spill(rows, runs):
        yield from sort_cost(len(rows))
        rows.sort(key=key, reverse=descending)
        run_file = ctx.track_temp(
            ctx.sm.create_temp_file(row_width, label="sortrun")
        )
        yield from ctx.sm.write_run(run_file, rows)
        runs.append(run_file)

    def run_reader(run_file):
        for block in range(run_file.num_pages):
            page = yield from ctx.sm.read_temp_page(run_file, block)
            for row in page.rows():
                yield ("row", row)

    def merged_rows(runs):
        readers = [run_reader(run_file) for run_file in runs]
        heads: List = []
        for i, reader in enumerate(readers):
            row = yield from SortOp._advance(reader)
            if row is not None:
                heads.append((rank(row), i, row))
        heapq.heapify(heads)
        while heads:
            _r, i, row = heapq.heappop(heads)
            yield ("row", row)
            nxt = yield from SortOp._advance(readers[i])
            if nxt is not None:
                heapq.heappush(heads, (rank(nxt), i, nxt))

    def run():
        budget = ctx.work_mem_tuples
        runs: List = []
        buffer: List[tuple] = []
        child = child_factory()
        while True:
            batch = yield from pull_batch(child)
            if batch is None:
                break
            buffer.extend(batch)
            if len(buffer) >= budget:
                yield from spill(buffer, runs)
                buffer = []
        if not runs:
            # In-memory path: one sort charge, the whole result as a
            # single charge-free batch (SortOp's _sorted path).
            yield from sort_cost(len(buffer))
            buffer.sort(key=key, reverse=descending)
            if buffer:
                yield (_BATCH, buffer)
            return
        if buffer:
            yield from spill(buffer, runs)
        merge = merged_rows(runs)
        done = False
        while not done:
            out: List[tuple] = []
            while len(out) < 1024:
                row = yield from SortOp._advance(merge)
                if row is None:
                    done = True
                    for run_file in runs:
                        ctx.drop_temp(run_file)
                    break
                out.append(row)
            if out:
                yield from ctx.cpu(len(out))
                yield (_BATCH, out)

    return run


def _partition(ctx, rows, split, nparts, label):
    """HashJoinOp._partition transliteration (shared by both sides)."""
    buckets = split(rows, nparts)
    yield from ctx.cpu(len(rows))
    parts = []
    for bucket in buckets:
        part = ctx.track_temp(ctx.sm.create_temp_file(64, label=label))
        yield from ctx.sm.write_run(part, bucket)
        parts.append(part)
    return parts


def _read_part(ctx, part):
    rows: List[tuple] = []
    for block in range(part.num_pages):
        page = yield from ctx.sm.read_temp_page(part, block)
        rows.extend(page.rows())
    return rows


def _hashjoin_source(
    ctx, plan: HashJoin, left_factory, right_factory, lschema, rschema
) -> Callable:
    insert = compile.hash_build(plan.left_key, lschema)
    probe = compile.hash_probe(plan.right_key, rschema, "inner")
    lsplit = compile.partition(plan.left_key, lschema)
    rsplit = compile.partition(plan.right_key, rschema)

    def run():
        budget = ctx.work_mem_tuples
        table: Dict[Any, List[tuple]] = {}
        count = 0
        overflow: List[tuple] = []
        partitioned = False
        left = left_factory()
        while True:
            batch = yield from pull_batch(left)
            if batch is None:
                break
            yield from ctx.cpu(len(batch))
            count += len(batch)
            if count > budget and not partitioned:
                partitioned = True
            if partitioned:
                overflow.extend(batch)
            else:
                insert(table, batch)
        right = right_factory()
        if not partitioned:
            while True:
                batch = yield from pull_batch(right)
                if batch is None:
                    return
                yield from ctx.cpu(len(batch))
                out = probe(table, batch)
                if out:
                    yield (_BATCH, out)
        # Grace path: spill both sides, join partition pairs in memory.
        all_rows = [row for rows in table.values() for row in rows]
        all_rows.extend(overflow)
        nparts = max(
            2, -(-len(all_rows) // max(1, ctx.work_mem_tuples // 2))
        )
        lparts = yield from _partition(ctx, all_rows, lsplit, nparts, "hjL")
        rrows: List[tuple] = []
        while True:
            batch = yield from pull_batch(right)
            if batch is None:
                break
            rrows.extend(batch)
        rparts = yield from _partition(ctx, rrows, rsplit, nparts, "hjR")
        for p in range(nparts):
            lrows = yield from _read_part(ctx, lparts[p])
            prows = yield from _read_part(ctx, rparts[p])
            yield from ctx.cpu(len(lrows) + len(prows))
            ptable: Dict[Any, List[tuple]] = {}
            insert(ptable, lrows)
            pending = probe(ptable, prows)
            for i in range(0, len(pending), 1024):
                yield (_BATCH, pending[i : i + 1024])
        for part in lparts + rparts:
            ctx.drop_temp(part)

    return run


def _mergejoin_source(
    ctx, plan: MergeJoin, left_factory, right_factory, lschema, rschema
) -> Callable:
    lkey = lschema.key_of([plan.left_key])
    rkey = rschema.key_of([plan.right_key])

    def run():
        gens = {"l": left_factory(), "r": right_factory()}
        bufs: Dict[str, List[tuple]] = {"l": [], "r": []}
        ends = {"l": False, "r": False}

        def fill(side):
            buf = bufs[side]
            while not buf and not ends[side]:
                batch = yield from pull_batch(gens[side])
                if batch is None:
                    ends[side] = True
                else:
                    buf.extend(batch)

        def take_group(side, key, value):
            buf = bufs[side]
            group: List[tuple] = []
            while True:
                while buf and key(buf[0]) == value:
                    group.append(buf.pop(0))
                if buf or ends[side]:
                    return group
                yield from fill(side)
                if not buf:
                    return group

        while True:
            yield from fill("l")
            yield from fill("r")
            lbuf, rbuf = bufs["l"], bufs["r"]
            if (ends["l"] and not lbuf) or (ends["r"] and not rbuf):
                return
            lk = lkey(lbuf[0])
            rk = rkey(rbuf[0])
            if lk < rk:
                lbuf.pop(0)
            elif rk < lk:
                rbuf.pop(0)
            else:
                lgroup = yield from take_group("l", lkey, lk)
                rgroup = yield from take_group("r", rkey, rk)
                yield from ctx.cpu(len(lgroup) * len(rgroup))
                out: List[tuple] = []
                for lrow in lgroup:
                    for rrow in rgroup:
                        out.append(lrow + rrow)
                if out:
                    yield (_BATCH, out)

    return run


def _nljoin_source(
    ctx, plan: NLJoin, left_factory, right_factory, out_schema, right_width
) -> Callable:
    matching = compile.filter(plan.predicate, out_schema)

    def run():
        right = right_factory()
        rrows: List[tuple] = []
        while True:
            batch = yield from pull_batch(right)
            if batch is None:
                break
            rrows.extend(batch)
        mat = ctx.track_temp(
            ctx.sm.create_temp_file(right_width, label="nlj")
        )
        yield from ctx.sm.write_run(mat, rrows)
        left = left_factory()
        while True:
            batch = yield from pull_batch(left)
            if batch is None:
                ctx.drop_temp(mat)
                return
            out: List[tuple] = []
            for block in range(mat.num_pages):
                page = yield from ctx.sm.read_temp_page(mat, block)
                prows = page.rows()
                yield from ctx.cpu(len(batch) * len(prows))
                out += matching(
                    [lrow + rrow for lrow in batch for rrow in prows]
                )
            if out:
                yield (_BATCH, out)

    return run


def _aggregate_source(ctx, plan: Aggregate, child_factory, in_schema) -> Callable:
    update = compile.agg_update(plan.aggs, in_schema)

    def run():
        states = [spec.make_state() for spec in plan.aggs]
        child = child_factory()
        consumed = 0
        batches = 0
        while True:
            batch = yield from pull_batch(child)
            if batch is None:
                break
            yield from ctx.cpu(len(batch) * len(states))
            update(states, batch)
            consumed += len(batch)
            batches += 1
            if ctx.lineage is not None and batches % 8 == 0:
                yield from ctx.lineage.checkpoint(
                    consumed,
                    [(s.count, s.total, s.best) for s in states],
                )
        yield (_BATCH, [tuple(state.result() for state in states)])

    return run


def _groupby_source(ctx, plan: GroupBy, child_factory, in_schema) -> Callable:
    update = compile.group_update(plan.aggs, plan.group_cols, in_schema)
    weight = max(1, len(plan.aggs))

    def run():
        groups: Dict[tuple, list] = {}
        child = child_factory()
        while True:
            batch = yield from pull_batch(child)
            if batch is None:
                break
            yield from ctx.cpu(len(batch) * weight)
            update(groups, batch)
        result = [
            key + tuple(state.result() for state in states)
            for key, states in sorted(groups.items())
        ]
        for i in range(0, len(result), 1024):
            yield (_BATCH, result[i : i + 1024])

    return run


# ---------------------------------------------------------------------------
# Probe-side builds (preludes fused into the left pipeline)
# ---------------------------------------------------------------------------
def _probe_build(ctx, right_factory, insert, state):
    """The build half of a fused semi/anti/outer probe stage: *insert*
    is the build kernel, *state* the stage's key set or hash table."""

    def build():
        right = right_factory()
        while True:
            batch = yield from pull_batch(right)
            if batch is None:
                return
            yield from ctx.cpu(len(batch))
            insert(state, batch)

    return build


# ---------------------------------------------------------------------------
# DML sources (InsertOp / UpdateOp / DeleteOp transliterations)
# ---------------------------------------------------------------------------
def _insert_source(ctx, plan: InsertRows) -> Callable:
    def run():
        owner = ctx.owner or _next_stream()
        yield ctx.sm.locks.acquire(owner, plan.table, LockMode.EXCLUSIVE)
        try:
            for row in plan.rows:
                yield from ctx.sm.insert_row(plan.table, row)
        finally:
            ctx.sm.locks.release(owner, plan.table)
        yield (_BATCH, [(len(plan.rows),)])

    return run


def _update_source(ctx, plan: UpdateRows) -> Callable:
    def run():
        owner = ctx.owner or _next_stream()
        table = plan.table
        schema = ctx.sm.catalog.table_schema(table)
        matching = compile.filter_items(plan.predicate, schema)
        yield ctx.sm.locks.acquire(owner, table, LockMode.EXCLUSIVE)
        changed = 0
        try:
            info = ctx.sm.catalog.table(table)
            for block in range(info.num_pages):
                page = yield from ctx.sm.read_table_page(table, block)
                for slot, row in matching(page.slots()):
                    yield from ctx.sm.update_row(
                        table, RID(block, slot), plan.apply(row)
                    )
                    changed += 1
        finally:
            ctx.sm.locks.release(owner, table)
        yield (_BATCH, [(changed,)])

    return run


def _delete_source(ctx, plan: DeleteRows) -> Callable:
    def run():
        owner = ctx.owner or _next_stream()
        table = plan.table
        schema = ctx.sm.catalog.table_schema(table)
        matching = compile.filter_items(plan.predicate, schema)
        yield ctx.sm.locks.acquire(owner, table, LockMode.EXCLUSIVE)
        removed = 0
        try:
            info = ctx.sm.catalog.table(table)
            for block in range(info.num_pages):
                page = yield from ctx.sm.read_table_page(table, block)
                for slot, row in matching(page.slots()):
                    yield from ctx.sm.delete_row(table, RID(block, slot))
                    removed += 1
        finally:
            ctx.sm.locks.release(owner, table)
        yield (_BATCH, [(removed,)])

    return run


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
def compile_plan(plan: PlanNode, ctx: ExecContext) -> Pipeline:
    """Compile *plan* into a tree of pipelines rooted at one Pipeline."""
    catalog = ctx.sm.catalog
    schema = plan.output_schema(catalog)

    if isinstance(plan, TableScan):
        return Pipeline(ctx, _scan_source(ctx, plan), [], [], schema)
    if isinstance(plan, IndexScan):
        return Pipeline(ctx, _index_source(ctx, plan), [], [], schema)

    if isinstance(plan, (Filter, Project, Limit, Distinct)):
        child = compile_plan(plan.child, ctx)
        stage = fusion.build_stage(plan, child.schema)
        return Pipeline(
            ctx,
            child.source_factory,
            child.stages + [stage],
            child.preludes,
            schema,
        )

    if isinstance(plan, Sort):
        child = compile_plan(plan.child, ctx)
        source = _sort_source(ctx, plan, child.generator, child.schema)
        return Pipeline(ctx, source, [], [], schema)
    if isinstance(plan, Aggregate):
        child = compile_plan(plan.child, ctx)
        source = _aggregate_source(ctx, plan, child.generator, child.schema)
        return Pipeline(ctx, source, [], [], schema)
    if isinstance(plan, GroupBy):
        child = compile_plan(plan.child, ctx)
        source = _groupby_source(ctx, plan, child.generator, child.schema)
        return Pipeline(ctx, source, [], [], schema)

    if isinstance(plan, HashJoin):
        left = compile_plan(plan.left, ctx)
        right = compile_plan(plan.right, ctx)
        source = _hashjoin_source(
            ctx, plan, left.generator, right.generator,
            left.schema, right.schema,
        )
        return Pipeline(ctx, source, [], [], schema)
    if isinstance(plan, MergeJoin):
        left = compile_plan(plan.left, ctx)
        right = compile_plan(plan.right, ctx)
        source = _mergejoin_source(
            ctx, plan, left.generator, right.generator,
            left.schema, right.schema,
        )
        return Pipeline(ctx, source, [], [], schema)
    if isinstance(plan, NLJoin):
        left = compile_plan(plan.left, ctx)
        right = compile_plan(plan.right, ctx)
        source = _nljoin_source(
            ctx, plan, left.generator, right.generator,
            schema, right.schema.row_width,
        )
        return Pipeline(ctx, source, [], [], schema)

    if isinstance(plan, (SemiJoin, AntiJoin)):
        left = compile_plan(plan.left, ctx)
        right = compile_plan(plan.right, ctx)
        stage = fusion.SemiProbeStage(
            plan.left_key, left.schema, anti=isinstance(plan, AntiJoin)
        )
        insert = compile.key_set(plan.right_key, right.schema)
        build = _probe_build(ctx, right.generator, insert, stage.keys)
        # The iterator builds the key set at the *root's* first pull,
        # before anything below the left input runs: outer preludes
        # precede inner ones.
        return Pipeline(
            ctx,
            left.source_factory,
            left.stages + [stage],
            [build] + left.preludes,
            schema,
        )
    if isinstance(plan, LeftOuterJoin):
        left = compile_plan(plan.left, ctx)
        right = compile_plan(plan.right, ctx)
        stage = fusion.OuterProbeStage(
            plan.left_key, left.schema, len(right.schema)
        )
        insert = compile.hash_build(plan.right_key, right.schema)
        build = _probe_build(ctx, right.generator, insert, stage.table)
        return Pipeline(
            ctx,
            left.source_factory,
            left.stages + [stage],
            [build] + left.preludes,
            schema,
        )

    if isinstance(plan, InsertRows):
        return Pipeline(ctx, _insert_source(ctx, plan), [], [], schema)
    if isinstance(plan, UpdateRows):
        return Pipeline(ctx, _update_source(ctx, plan), [], [], schema)
    if isinstance(plan, DeleteRows):
        return Pipeline(ctx, _delete_source(ctx, plan), [], [], schema)

    raise TypeError(f"no push pipeline for {type(plan).__name__}")
