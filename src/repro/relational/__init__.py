"""The relational layer: schemas, expressions, logical plans, signatures.

This layer is engine-agnostic: both the QPipe engine (`repro.engine`) and
the conventional iterator engine (`repro.baseline`) interpret the same
plan trees, which is what makes the paper's apples-to-apples comparison
possible.
"""

from repro.relational.expressions import (
    AggSpec,
    And,
    Arith,
    Between,
    Col,
    Cmp,
    Const,
    Expr,
    If,
    InList,
    Like,
    Not,
    Or,
)
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
    walk_plan,
)
from repro.relational.schema import Column, Schema

#: Rows per output batch wherever an operator slices a materialised
#: result (sorted runs, group-by output, Grace partition joins, exchange
#: frames) -- one decision, so batch boundaries agree across engines.
BATCH_ROWS = 1024

__all__ = [
    "AggSpec",
    "Aggregate",
    "And",
    "AntiJoin",
    "Arith",
    "BATCH_ROWS",
    "Between",
    "Col",
    "Cmp",
    "Column",
    "Const",
    "DeleteRows",
    "Distinct",
    "Expr",
    "Filter",
    "GroupBy",
    "If",
    "HashJoin",
    "IndexScan",
    "InList",
    "InsertRows",
    "LeftOuterJoin",
    "Like",
    "Limit",
    "MergeJoin",
    "NLJoin",
    "Not",
    "Or",
    "PlanNode",
    "Project",
    "Schema",
    "SemiJoin",
    "Sort",
    "TableScan",
    "UpdateRows",
    "walk_plan",
]
