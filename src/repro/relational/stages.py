"""Streaming operator bodies: the stages every engine runs.

A streaming plan node -- filter, project, limit, distinct, or the probe
side of a semi/anti/left-outer join -- is one *stage*, and a stage is
the whole operator body:

* ``charged``      -- whether the operator costs one tuple of simulated
  CPU per *input* row, paid before it runs (every one but LIMIT), and
* ``apply(batch)`` -- the batch transformation itself; predicates,
  projections and probes are whole-batch kernels from
  :mod:`repro.relational.compile`.

What a stage never decides is the *schedule*: who pulls the batch, where
the charge is paid, how the result ships.  The iterator engine
interleaves the two over a source operator
(:class:`~repro.baseline.operators.ChainOp`, one chain per maximal run
of streaming nodes); the packet engine runs one stage per packet between a ``get`` and a
``put`` (:class:`~repro.engine.engines.misc.StreamEngine`); the
distributed coordinator applies one to the gathered stream
(:mod:`repro.shard.merge`).
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

#: Streaming nodes over one input, and those with a second (right)
#: input that is built before the first left batch is probed.
UNARY = (Filter, Project, Limit, Distinct)
PROBES = (SemiJoin, AntiJoin, LeftOuterJoin)
#: The plan nodes that stream: one stage each, never a pipeline breaker.
STREAMING = UNARY + PROBES


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

    The engine drains the right input (rows of *right*) through
    ``build`` before the first left batch arrives.  Semi/anti (EXISTS /
    NOT EXISTS) keep left rows by membership of their key in the right
    input's key set; left-outer pads unmatched left rows with Nones.
    ``build`` and ``apply`` are the compiled kernels bound to that
    state.
    """

    __slots__ = ("build", "apply")

    def __init__(self, plan: PlanNode, schema: Schema, right: Schema):
        if isinstance(plan, LeftOuterJoin):
            state: object = {}
            insert = compile.hash_build(plan.right_key, right)
            probe = compile.hash_probe(
                plan.left_key, schema, "outer", pad=len(right)
            )
        else:
            state = set()
            insert = compile.key_set(plan.right_key, right)
            probe = compile.hash_probe(
                plan.left_key, schema,
                "anti" if isinstance(plan, AntiJoin) else "semi",
            )
        self.build = partial(insert, state)
        self.apply = partial(probe, state)


def build_stage(
    plan: PlanNode, schema: Schema, right: Optional[Schema] = None
) -> Stage:
    """The stage for one streaming *plan* node over a left (or only)
    input of *schema*; a probe node also needs its *right* input's."""
    if isinstance(plan, Filter):
        return FilterStage(plan.predicate, schema)
    if isinstance(plan, Project):
        return ProjectStage(plan.names, plan.exprs, schema)
    if isinstance(plan, Limit):
        return LimitStage(plan.count, plan.offset)
    if isinstance(plan, Distinct):
        return DistinctStage()
    if isinstance(plan, PROBES):
        return ProbeStage(plan, schema, right)
    raise TypeError(f"{type(plan).__name__} is not a streaming operator")
