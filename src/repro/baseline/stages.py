"""Streaming operator bodies: the stages of a chain.

A streaming plan node -- filter, project, limit, distinct, or the probe
side of a semi/anti/left-outer join -- is one *stage*, and a stage is
the whole operator body:

* ``charged``      -- whether the operator charges the simulated CPU one
  tuple per input row before it runs (every one but LIMIT does), and
* ``apply(batch)`` -- the batch transformation itself; predicates,
  projections and probes are whole-batch kernels from
  :mod:`repro.relational.compile`.

:class:`~repro.baseline.operators.ChainOp` interleaves the two over a
source operator.  The iterator engine builds one chain per streaming
node and the pushed engine one per maximal run of them; the simulated
schedule is the same either way, and *independent* of how ``apply`` is
built.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from repro.relational import compile
from repro.relational.expressions import Expr
from repro.relational.plans import (
    AntiJoin,
    Distinct,
    Filter,
    LeftOuterJoin,
    Limit,
    PlanNode,
    Project,
    SemiJoin,
)
from repro.relational.schema import Schema

#: The plan nodes that stream: one stage each, never a pipeline breaker.
STREAMING = (
    Filter, Project, Limit, Distinct, SemiJoin, AntiJoin, LeftOuterJoin,
)


class Stage:
    """One streaming operator; ``apply`` may return ``[]``.

    ``finished`` turns True only for LIMIT once its quota is emitted,
    telling the chain to stop pulling its source.
    """

    __slots__ = ()

    charged = True
    finished = False

    def apply(self, batch: list) -> list:
        raise NotImplementedError


class FilterStage(Stage):
    """Residual predicate filter."""

    # The compiled kernel *is* ``apply`` (an instance slot over the
    # base method): no wrapper frame per batch.
    __slots__ = ("apply",)

    def __init__(self, predicate: Expr, schema: Schema):
        self.apply = compile.filter(predicate, schema)


class ProjectStage(Stage):
    """Column selection / computed expressions."""

    __slots__ = ("apply",)

    def __init__(
        self,
        names: Sequence[str],
        exprs: Optional[Sequence[Expr]],
        schema: Schema,
    ):
        self.apply = compile.project(
            names if exprs is None else exprs, schema
        )


class LimitStage(Stage):
    """LIMIT/OFFSET: charges nothing, and finishes the chain once
    satisfied -- which ``LIMIT 0`` is before the first pull."""

    __slots__ = ("skip", "remaining", "finished")

    charged = False

    def __init__(self, count: int, offset: int):
        self.skip = offset
        self.remaining = count
        self.finished = count == 0

    def apply(self, batch):
        if self.skip:
            if self.skip >= len(batch):
                self.skip -= len(batch)
                return []
            batch = batch[self.skip:]
            self.skip = 0
        if len(batch) > self.remaining:
            batch = batch[: self.remaining]
        self.remaining -= len(batch)
        self.finished = self.remaining == 0
        return batch


class DistinctStage(Stage):
    """Streaming duplicate elimination (first occurrence wins)."""

    __slots__ = ("seen",)

    def __init__(self):
        self.seen = set()

    def apply(self, batch):
        seen = self.seen
        out = []
        for row in batch:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out


class ProbeStage(Stage):
    """Probe half of a semi, anti or left-outer hash join, streaming
    over the left input.

    The chain drains ``right`` through ``build`` before the first left
    batch arrives.  Semi/anti (EXISTS / NOT EXISTS) keep left rows by
    membership of their key in the right input's key set; left-outer
    pads unmatched left rows with Nones.  ``build`` and ``apply`` are
    the compiled kernels bound to that state.
    """

    __slots__ = ("right", "build", "apply")

    def __init__(self, plan: PlanNode, schema: Schema, right):
        self.right = right
        if isinstance(plan, LeftOuterJoin):
            state: object = {}
            insert = compile.hash_build(plan.right_key, right.schema)
            probe = compile.hash_probe(
                plan.left_key, schema, "outer", pad=len(right.schema)
            )
        else:
            state = set()
            insert = compile.key_set(plan.right_key, right.schema)
            probe = compile.hash_probe(
                plan.left_key, schema,
                "anti" if isinstance(plan, AntiJoin) else "semi",
            )
        self.build = partial(insert, state)
        self.apply = partial(probe, state)


def build_stage(plan: PlanNode, schema: Schema, ctx, build) -> Stage:
    """The stage for one streaming *plan* node over a left (or only)
    input of *schema*; ``build(plan, ctx)`` compiles a probe's right
    input into an operator."""
    if isinstance(plan, Filter):
        return FilterStage(plan.predicate, schema)
    if isinstance(plan, Project):
        return ProjectStage(plan.names, plan.exprs, schema)
    if isinstance(plan, Limit):
        return LimitStage(plan.count, plan.offset)
    if isinstance(plan, Distinct):
        return DistinctStage()
    if isinstance(plan, (SemiJoin, AntiJoin, LeftOuterJoin)):
        return ProbeStage(plan, schema, build(plan.right, ctx))
    raise TypeError(f"{type(plan).__name__} is not a streaming operator")
