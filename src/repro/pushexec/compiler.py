"""Plan trees compiled to fused operator trees.

The pushed engine runs the iterator engine's operators
(:mod:`repro.baseline.operators`): every leaf and pipeline breaker
(scan, sort, aggregate, group by, hash/merge/NL join, DML) is the same
class over inputs compiled here.  What differs is the one decision
Shaikhha et al.'s push-based loop fusion is about: a maximal run of
streaming nodes -- filter, project, limit, distinct and the probe side
of semi/anti/outer joins -- becomes *one*
:class:`~repro.baseline.operators.ChainOp`, so a batch crosses one
coroutine frame per run where the iterator engine's one-stage chains
suspend one frame per operator.

Equivalence contract (load-bearing -- the byte-identical-figure tests
enforce it): for every plan the fused tree issues the exact sequence of
storage-manager calls and CPU charges the iterator tree issues.  It
holds by construction: the operators are shared, and a chain's schedule
does not depend on how many stages it holds (see ``ChainOp``).
"""

from __future__ import annotations

from repro.baseline.operators import (
    ChainOp,
    ExecContext,
    Operator,
    build_breaker,
)
from repro.relational.plans import PlanNode
from repro.relational.stages import STREAMING

__all__ = ["compile_plan"]


def compile_plan(plan: PlanNode, ctx: ExecContext) -> Operator:
    """Compile *plan* into an operator tree with streaming runs fused."""
    run = []
    while isinstance(plan, STREAMING):
        run.append(plan)
        plan = plan.children[0]
    source = build_breaker(plan, ctx, compile_plan)
    if not run:
        return source
    # Outer probe builds run before inner ones, as in the iterator tree:
    # ChainOp opens its stages outermost first.
    return ChainOp(ctx, source, run[::-1], compile_plan)
