"""Coordinator-side evaluation of the suffix operators.

The distributed planner peels global operators (aggregation, sort,
limit...) off the per-shard fragment; after the gather, someone has to
apply them to the assembled stream.  Routing the stream back through a
full engine would work but double-charges scans; instead this module
applies each suffix operator directly, using the *same arithmetic* as
the reference operators in :mod:`repro.baseline.operators`:

* aggregates accumulate through the same ``AggState`` objects in input
  order (float accumulation is order-sensitive -- this is where byte
  identity is won or lost);
* GroupBy emits ``sorted(groups.items())``;
* hash joins build left-to-right and emit in probe order
  (``lrow + rrow``) through the same kernels as the in-memory join path;
* filter, project, limit and distinct are the operators' own stages
  (:mod:`repro.relational.stages`), applied to the stream as one batch;
* every operator charges the host CPU with the reference operator's
  tuple counts and factors.

All evaluators are coroutines bound to an
:class:`~repro.baseline.operators.ExecContext`, so the virtual-time
cost lands on whichever host runs the merge (the coordinator for
suffixes, the owning shard for shuffle-stage grouping).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence

from repro.baseline.operators import ExecContext
from repro.relational import compile
from repro.relational.plans import (
    Aggregate,
    GroupBy,
    HashJoin,
    PlanNode,
    Sort,
)
from repro.relational.schema import Schema
from repro.relational.sort import sort_comparisons
from repro.relational.stages import UNARY, build_stage


def group_rows(
    plan: GroupBy,
    rows: Sequence[tuple],
    schema: Schema,
    ctx: ExecContext,
) -> Generator:
    """Coroutine: the reference GroupBy over an in-memory row stream."""
    yield from ctx.cpu(len(rows) * max(1, len(plan.aggs)))
    groups: Dict[tuple, list] = {}
    compile.group_update(plan.aggs, plan.group_cols, schema)(groups, rows)
    return [
        key + tuple(state.result() for state in states)
        for key, states in sorted(groups.items())
    ]


def hash_join_rows(
    plan: HashJoin,
    lrows: Sequence[tuple],
    rrows: Sequence[tuple],
    lschema: Schema,
    rschema: Schema,
    ctx: ExecContext,
) -> Generator:
    """Coroutine: the reference in-memory hash join over row streams.

    Build order is *lrows* order, probe order is *rrows* order --
    callers must assemble both in global (shard-order) sequence for the
    output to match the single-host join byte for byte.
    """
    yield from ctx.cpu(len(lrows))
    table: Dict = {}
    compile.hash_build(plan.left_key, lschema)(table, lrows)
    yield from ctx.cpu(len(rrows))
    return compile.hash_probe(plan.right_key, rschema, "inner")(table, rrows)


def _apply_one(
    op: PlanNode, rows: List[tuple], catalog, ctx: ExecContext
) -> Generator:
    schema = op.children[0].output_schema(catalog)
    if isinstance(op, UNARY):
        # The whole stream as one batch of the operator's stage; a probe
        # has a second input and is never peeled into a suffix.
        stage = build_stage(op, schema)
        if stage.charged:
            yield from ctx.cpu(len(rows))
        return stage.apply(rows)
    if isinstance(op, Sort):
        yield from ctx.cpu(sort_comparisons(len(rows)))
        out = list(rows)
        out.sort(key=schema.key_of(op.keys), reverse=op.descending)
        return out
    if isinstance(op, Aggregate):
        states = [spec.make_state() for spec in op.aggs]
        yield from ctx.cpu(len(rows) * len(states))
        compile.agg_update(op.aggs, schema)(states, rows)
        return [tuple(state.result() for state in states)]
    if isinstance(op, GroupBy):
        out = yield from group_rows(op, rows, schema, ctx)
        return out
    raise TypeError(f"no merge evaluator for {type(op).__name__}")


def apply_suffix(
    suffix: Sequence[PlanNode],
    rows: List[tuple],
    catalog,
    ctx: ExecContext,
) -> Generator:
    """Coroutine: apply the peeled operators (bottom-up order) to the
    assembled stream, charging *ctx*'s host for the work."""
    for op in suffix:
        rows = yield from _apply_one(op, rows, catalog, ctx)
    return rows
