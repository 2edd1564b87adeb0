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


# ---------------------------------------------------------------------------
# The hash-family operator bodies as the engines wrote them out per row,
# before they became kernels: the loops below are the deleted bodies,
# moved here verbatim, over the 1-tuple keys ``Schema.projector`` made.
# ---------------------------------------------------------------------------
def projector(schema, names):
    """The old ``Schema.projector``: a row -> key-tuple function."""
    idxs = [schema.index_of(name) for name in names]
    if len(idxs) == 1:
        get = operator.itemgetter(idxs[0])
        return lambda row: (get(row),)
    return operator.itemgetter(*idxs)


def hash_build(table, rows, key):
    for row in rows:
        table.setdefault(key(row), []).append(row)


def probe_inner(table, batch, rkey):
    out = []
    for rrow in batch:
        for lrow in table.get(rkey(rrow), ()):
            out.append(lrow + rrow)
    return out


def probe_outer(table, batch, lkey, pad):
    out = []
    for lrow in batch:
        matches = table.get(lkey(lrow))
        if matches:
            for rrow in matches:
                out.append(lrow + rrow)
        else:
            out.append(lrow + pad)
    return out


def key_set(keys, rows, rkey):
    for row in rows:
        keys.add(rkey(row))


def probe_semi(keys, batch, lkey, anti):
    if anti:
        return [r for r in batch if lkey(r) not in keys]
    return [r for r in batch if lkey(r) in keys]


def key_range(rows, key_fn, lo, hi):
    """The clustered ``IndexScan`` page filter, as each engine wrote it
    out; *key_fn* is ``IndexInfo.key_of``'s itemgetter."""
    if lo is not None or hi is not None:
        rows = [
            row
            for row in rows
            if (lo is None or key_fn(row) >= lo)
            and (hi is None or key_fn(row) <= hi)
        ]
    return rows


def partition(rows, key, nparts):
    buckets = [[] for _ in range(nparts)]
    for row in rows:
        buckets[hash(key(row)) % nparts].append(row)
    return buckets


def group_split(rows, key):
    """The batch split ``compile.group_update`` looped in Python."""
    parts = {}
    for k, row in zip([key(row) for row in rows], rows):
        part = parts.get(k)
        if part is None:
            parts[k] = [row]
        else:
            part.append(row)
    return parts
