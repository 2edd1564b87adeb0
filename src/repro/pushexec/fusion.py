"""Streaming operator chains compiled to push-based stage closures.

A run of streaming operators between two pipeline breakers -- filter ->
project -> limit -> distinct, plus the probe side of semi/anti/outer
joins -- becomes a list of *stages*.  Each stage is a pair of pure
functions over a row batch:

* ``cost(batch)``  -- the tuple count the iterator reference charges the
  simulated CPU for the same batch (0 where the reference charges
  nothing, e.g. LIMIT), and
* ``apply(batch)`` -- the batch transformation itself; predicates and
  projections are whole-batch kernels from
  :mod:`repro.relational.compile`.

The push driver in :mod:`repro.pushexec.compiler` interleaves the two,
so the simulated schedule is *independent* of how ``apply`` is built.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, List, Optional, Sequence

from repro.relational import compile
from repro.relational.expressions import Expr
from repro.relational.plans import Distinct, Filter, Limit, PlanNode, Project
from repro.relational.schema import Column, Schema

__all__ = [
    "Stage",
    "FilterStage",
    "ProjectStage",
    "LimitStage",
    "DistinctStage",
    "SemiProbeStage",
    "OuterProbeStage",
    "build_stage",
    "compile_chain",
    "chain_output_schema",
    "push_batches",
]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------
class Stage:
    """One streaming operator compiled into the chain.

    ``cost`` mirrors the iterator reference's CPU charge for the same
    batch; ``apply`` transforms the batch and may return ``[]``.
    ``finished`` turns True only for LIMIT once its quota is emitted,
    telling the driver to stop pulling the source.
    """

    __slots__ = ()

    finished = False

    def cost(self, batch: list) -> int:
        return len(batch)

    def apply(self, batch: list) -> list:
        raise NotImplementedError


class FilterStage(Stage):
    """Row selection; charges one tuple per input row (FilterOp)."""

    # The compiled kernel *is* ``apply`` (an instance slot over the
    # base method): no wrapper frame per batch.
    __slots__ = ("apply",)

    def __init__(self, predicate: Expr, schema: Schema):
        self.apply = compile.filter(predicate, schema)


class ProjectStage(Stage):
    """Column selection / computed expressions (ProjectOp)."""

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
    """OFFSET/LIMIT; charges nothing, like LimitOp."""

    __slots__ = ("skip", "remaining")

    def __init__(self, count: int, offset: int):
        self.skip = offset
        self.remaining = count

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    def cost(self, batch):
        return 0

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
        return batch


class DistinctStage(Stage):
    """Streaming duplicate elimination, first occurrence wins
    (DistinctOp)."""

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


class SemiProbeStage(Stage):
    """Probe half of a semi/anti join, fused into the left pipeline.

    ``keys`` is filled by a build prelude (compiler) before the first
    batch arrives; ``apply`` is the membership-filter kernel bound to
    it, exactly SemiJoinOp's probe.
    """

    __slots__ = ("keys", "apply")

    def __init__(self, key: str, schema: Schema, anti: bool):
        self.keys = set()
        probe = compile.hash_probe(key, schema, "anti" if anti else "semi")
        self.apply = partial(probe, self.keys)


class OuterProbeStage(Stage):
    """Probe half of a left-outer hash join, fused into the left
    pipeline; ``table`` is filled by a build prelude.  Unmatched left
    rows pad the right side with Nones (LeftOuterJoinOp)."""

    __slots__ = ("table", "apply")

    def __init__(self, key: str, schema: Schema, right_width: int):
        self.table = {}
        probe = compile.hash_probe(key, schema, "outer", pad=right_width)
        self.apply = partial(probe, self.table)


# ---------------------------------------------------------------------------
# Chain compilation
# ---------------------------------------------------------------------------
def _out_schema(op: PlanNode, schema: Schema) -> Schema:
    """Output schema of one streaming *op* given its input *schema*.

    Mirrors ``PlanNode.output_schema`` without needing a catalog (the
    chain already knows its input layout)."""
    if isinstance(op, Project):
        if op.exprs is None:
            return schema.project(op.names)
        return Schema(Column(name, "float") for name in op.names)
    return schema


def build_stage(op: PlanNode, schema: Schema) -> Stage:
    """Compile one streaming plan node into a :class:`Stage`."""
    if isinstance(op, Filter):
        return FilterStage(op.predicate, schema)
    if isinstance(op, Project):
        return ProjectStage(op.names, op.exprs, schema)
    if isinstance(op, Limit):
        return LimitStage(op.count, op.offset)
    if isinstance(op, Distinct):
        return DistinctStage()
    raise TypeError(f"{type(op).__name__} is not a streaming operator")


def compile_chain(ops: Sequence[PlanNode], schema: Schema) -> List[Stage]:
    """Compile a run of streaming operators into stages, threading the
    schema through projections."""
    stages = []
    for op in ops:
        stages.append(build_stage(op, schema))
        schema = _out_schema(op, schema)
    return stages


def chain_output_schema(ops: Sequence[PlanNode], schema: Schema) -> Schema:
    for op in ops:
        schema = _out_schema(op, schema)
    return schema


def push_batches(stages: Sequence[Stage], batches: Iterable[list]) -> list:
    """Drive *batches* through *stages* outside the simulator.

    The sim-free counterpart of the compiler's fused driver loop, used by
    the property tests to compare chains against a reference interpreter
    under different batch boundaries."""
    out: list = []
    for batch in batches:
        rows = list(batch)
        for stage in stages:
            rows = stage.apply(rows)
            if not rows:
                break
        out.extend(rows)
        if any(stage.finished for stage in stages):
            break
    return out
