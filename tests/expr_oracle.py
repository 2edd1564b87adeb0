"""The reference expression interpreter the compiler is tested against.

A tree walk with no pre-binding: column indices and operator functions
are re-resolved on every call.  It defines what each ``Expr`` node
*means*; :mod:`repro.relational.compile` must agree with it value for
value (including ``and``/``or`` returning ``bool``).
"""

import operator

from repro.relational.expressions import (
    And,
    Arith,
    Between,
    Cmp,
    Col,
    Const,
    If,
    InList,
    Like,
    Not,
    Or,
)

_OPS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv,
}


def eval_expr(expr, row, schema):
    """Evaluate *expr* on *row* by walking the tree."""
    if isinstance(expr, Col):
        return row[schema.index_of(expr.name)]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, (Cmp, Arith)):
        return _OPS[expr.op](
            eval_expr(expr.left, row, schema),
            eval_expr(expr.right, row, schema),
        )
    if isinstance(expr, And):
        return all(bool(eval_expr(t, row, schema)) for t in expr.terms)
    if isinstance(expr, Or):
        return any(bool(eval_expr(t, row, schema)) for t in expr.terms)
    if isinstance(expr, Not):
        return not eval_expr(expr.term, row, schema)
    if isinstance(expr, Between):
        return expr.lo <= eval_expr(expr.expr, row, schema) <= expr.hi
    if isinstance(expr, InList):
        return eval_expr(expr.expr, row, schema) in expr.values
    if isinstance(expr, Like):
        value = eval_expr(expr.expr, row, schema)
        pattern = expr.pattern
        if pattern.startswith("%") and pattern.endswith("%") and len(pattern) > 1:
            return pattern[1:-1] in value
        if pattern.endswith("%"):
            return value.startswith(pattern[:-1])
        if pattern.startswith("%"):
            return value.endswith(pattern[1:])
        return value == pattern
    if isinstance(expr, If):
        if eval_expr(expr.cond, row, schema):
            return eval_expr(expr.then, row, schema)
        return eval_expr(expr.otherwise, row, schema)
    raise TypeError(f"cannot interpret expression {expr!r}")
