"""The expression compiler: ``Expr`` trees to generated batch kernels.

Every engine evaluates predicates, projections and aggregate folds
through this module.  A tree renders to flat Python source over the free
variable ``row`` (column refs become ``row[i]`` tuple indexing) and the
entry points wrap that source in one loop per *batch* -- a list
comprehension for filters and projections, a single ``for`` for
aggregate folds -- so the inner loop of a scan crosses no Python call
per row.  The hash-family operator bodies (join build and probe, Grace
partition, the group-by split) are kernels here too: each engine keeps
only its scheduling, its CPU charges and its temp-file I/O.

Constants are never spelled into the source.  Each becomes a parameter
``c0, c1, ...`` of a generated *factory* whose body defines the kernel,
and the factory is called with the constants, which reach the kernel as
closure cells.  The source therefore depends only on the expression's
*shape* (node types, operators, column indices), and the factory cache
is keyed by it: a thousand lookups differing only in a key compile once,
and the cache is bounded by the number of shapes a program uses.

Value semantics are the Python operators the trees name, applied in
tree order: comparisons and arithmetic map to the same operators,
``and``/``or`` chains short-circuit left to right and are normalised
with ``bool()`` only in *value* position (in ``if`` position only
truthiness matters), and aggregate folds accumulate with ``+=`` / ``<``
/ ``>`` in row order -- never builtin ``sum``, whose float compensation
(Python >= 3.12) rounds differently from the left fold.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.relational.expressions import (
    AggSpec,
    And,
    Arith,
    Between,
    Cmp,
    Col,
    Const,
    Expr,
    If,
    InList,
    Like,
    Not,
    Or,
)
from repro.relational.schema import Schema

__all__ = [
    "row_fn",
    "filter",
    "filter_items",
    "key_range",
    "project",
    "scan",
    "agg_update",
    "group_update",
    "hash_build",
    "table_rows",
    "key_set",
    "hash_probe",
    "partition",
]

#: Factory source -> factory.  Keyed by expression shape (constants are
#: factory parameters), so it is bounded by the shapes a program uses.
_code_cache: Dict[str, Callable] = {}


class _Source:
    """Renders expressions over *schema*, collecting their constants."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.consts: List[Any] = []

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def expr(self, expr: Expr, cond: bool = False) -> str:
        """*expr* as a Python expression over ``row``.  ``cond`` marks
        boolean (``if``) position, where the ``bool()`` normalisation of
        and/or chains can be elided."""
        if isinstance(expr, Col):
            return f"row[{self.schema.index_of(expr.name)}]"
        if isinstance(expr, Const):
            return self.const(expr.value)
        if isinstance(expr, (Cmp, Arith)):
            left, right = self.expr(expr.left), self.expr(expr.right)
            return f"({left} {expr.op} {right})"
        if isinstance(expr, (And, Or)):
            joiner = " and " if isinstance(expr, And) else " or "
            inner = joiner.join(self.expr(t, cond) for t in expr.terms)
            return f"({inner})" if cond else f"bool({inner})"
        if isinstance(expr, Not):
            return f"(not {self.expr(expr.term, True)})"
        if isinstance(expr, Between):
            lo = self.const(expr.lo)
            mid = self.expr(expr.expr)
            return f"({lo} <= {mid} <= {self.const(expr.hi)})"
        if isinstance(expr, InList):
            return f"({self.expr(expr.expr)} in {self.const(expr.values)})"
        if isinstance(expr, Like):
            value, pattern = self.expr(expr.expr), expr.pattern
            if (
                pattern.startswith("%")
                and pattern.endswith("%")
                and len(pattern) > 1
            ):
                return f"({self.const(pattern[1:-1])} in {value})"
            if pattern.endswith("%"):
                return f"{value}.startswith({self.const(pattern[:-1])})"
            if pattern.startswith("%"):
                return f"{value}.endswith({self.const(pattern[1:])})"
            return f"({value} == {self.const(pattern)})"
        if isinstance(expr, If):
            then = self.expr(expr.then)
            test = self.expr(expr.cond, True)
            return f"({then} if {test} else {self.expr(expr.otherwise)})"
        raise TypeError(f"cannot compile expression {expr!r}")

    def tuple_of(self, items: Sequence[Union[Expr, str]]) -> str:
        """A tuple display of *items*: expressions or column names."""
        parts = [
            self.expr(Col(item) if isinstance(item, str) else item)
            for item in items
        ]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def close(self, body: str) -> Callable:
        """Instantiate the kernel *body* defines: the indented body of
        the factory, returning the kernel, with the constants rendered
        so far as the factory's parameters."""
        params = ", ".join(f"c{i}" for i in range(len(self.consts)))
        src = f"def factory({params}):\n{body}\n"
        factory = _code_cache.get(src)
        if factory is None:
            namespace: dict = {}
            # One file name per shape: cProfile merges functions by
            # (file, line, name), and every kernel sits on line 2.
            name = f"<relational.compile #{len(_code_cache)}>"
            exec(compile(src, name, "exec"), namespace)
            # Designated impurity: a deterministic memo -- the factory
            # is a pure function of `src`, so cell results cannot depend
            # on whether the cache was warm.
            factory = _code_cache[src] = namespace["factory"]
        return factory(*self.consts)


def row_fn(expr: Expr, schema: Schema) -> Callable:
    """``row -> value`` as one generated closure."""
    src = _Source(schema)
    return src.close(f"    return lambda row: {src.expr(expr)}")


def filter(predicate: Expr, schema: Schema) -> Callable:
    """``rows -> surviving rows`` as one comprehension."""
    return scan(predicate, None, schema)


def filter_items(predicate: Optional[Expr], schema: Schema) -> Callable:
    """``page slot list -> [(slot, row)] of the live rows that match``:
    the DML page filter (a None slot is a tombstone; a None predicate
    matches every row)."""
    src = _Source(schema)
    test = "" if predicate is None else f" and {src.expr(predicate, True)}"
    return src.close(
        f"    return lambda slots: [(slot, row) "
        f"for slot, row in enumerate(slots) if row is not None{test}]"
    )


def key_range(key_columns: Sequence[str], schema: Schema) -> Callable:
    """``keep(rows, lo, hi)``: the rows whose index key lies in the
    closed range, in order -- the clustered index scan's page filter.

    The key is the bare column for one key column and the tuple for
    several, as the index stores it; a None bound is open, and with both
    open *rows* itself comes back.
    """
    src = _Source(schema)
    key = (
        src.expr(Col(key_columns[0])) if len(key_columns) == 1
        else src.tuple_of(key_columns)
    )
    return src.close(f"""\
    def keep(rows, lo, hi):
        if lo is None:
            if hi is None:
                return rows
            return [row for row in rows if {key} <= hi]
        if hi is None:
            return [row for row in rows if {key} >= lo]
        return [row for row in rows if {key} >= lo and {key} <= hi]
    return keep""")


def project(items: Sequence[Union[Expr, str]], schema: Schema) -> Callable:
    """``rows -> [tuple of each item per row]``; an item is an
    expression or a column name."""
    src = _Source(schema)
    return src.close(
        f"    return lambda rows: [{src.tuple_of(items)} for row in rows]"
    )


def _identity(rows: list) -> list:
    return rows


def scan(
    predicate: Optional[Expr],
    project: Optional[Sequence[str]],
    schema: Schema,
) -> Callable:
    """Scan post-processing, ``rows -> rows``: filter and column
    projection in one comprehension (either may be None)."""
    if predicate is None and project is None:
        return _identity
    src = _Source(schema)
    test = "" if predicate is None else f" if {src.expr(predicate, True)}"
    out = "row" if project is None else src.tuple_of(project)
    return src.close(f"    return lambda rows: [{out} for row in rows{test}]")


def agg_update(specs: Sequence[AggSpec], schema: Schema) -> Callable:
    """``update(states, rows)``: fold a batch into one
    :class:`~repro.relational.expressions.AggState` per spec, in one
    generated loop -- the values ``for row in rows: state.add(v(row))``
    leaves behind, without the per-row dispatch."""
    src = _Source(schema)
    names = ", ".join(f"s{i}" for i in range(len(specs)))
    head = [f"[{names}] = states", "n = len(rows)"]
    loop: List[str] = []
    tail: List[str] = []
    for i, spec in enumerate(specs):
        tail.append(f"s{i}.count += n")
        if spec.func == "count":
            continue
        value = src.expr(spec.expr)
        if spec.func in ("sum", "avg"):
            head.append(f"t{i} = s{i}.total")
            loop.append(f"t{i} += {value}")
            tail.append(f"s{i}.total = t{i}")
        else:
            op = "<" if spec.func == "min" else ">"
            head.append(f"b{i} = s{i}.best")
            loop.append(f"v = {value}")
            loop.append(f"if b{i} is None or v {op} b{i}: b{i} = v")
            tail.append(f"s{i}.best = b{i}")
    lines = ["def update(states, rows):"]
    lines += [f"    {line}" for line in head]
    if loop:
        lines.append("    for row in rows:")
        lines += [f"        {line}" for line in loop]
    lines += [f"    {line}" for line in tail]
    lines.append("return update")
    return src.close("\n".join(f"    {line}" for line in lines))


def group_update(
    specs: Sequence[AggSpec], group_cols: Sequence[str], schema: Schema
) -> Callable:
    """``update(groups, rows)``: fold a batch into ``groups``, a dict
    from group-key tuple to that group's ``AggState`` list.

    The batch is split by key first (rows keep encounter order, so each
    state sees the value sequence a per-row loop would feed it) and each
    part runs through the :func:`agg_update` kernel.  The key stays a
    tuple: it reaches the output rows.
    """
    specs = list(specs)
    src = _Source(schema)
    key = src.tuple_of(group_cols)
    # The fold and the spec list ride in as constants, so the source is
    # keyed by the group columns alone.
    fold, specs_ = src.const(agg_update(specs, schema)), src.const(specs)
    return src.close(f"""\
    def update(groups, rows):
        parts = {{}}
        get = parts.get
        for row in rows:
            key = {key}
            part = get(key)
            if part is None:
                parts[key] = [row]
            else:
                part.append(row)
        for key, part in parts.items():
            states = groups.get(key)
            if states is None:
                states = groups[key] = [s.make_state() for s in {specs_}]
            {fold}(states, part)
    return update""")


def hash_build(key: str, schema: Schema) -> Callable:
    """``build(table, rows)``: file each row under its bare *key* column
    value.

    While every key the table has seen is unique it maps a key to its
    row: a batch costs one dict display, a length check and a
    disjointness test, all in C.  The first repeat, inside a batch or
    across batches, turns every value into the list of its key's rows
    in arrival order, and the table stays listed.  The form is read
    from the data (rows are tuples, so a list value means listed);
    :func:`table_rows` and :func:`hash_probe` read either.
    """
    src = _Source(schema)
    k = src.expr(Col(key))
    return src.close(f"""\
    def build(table, rows):
        for first in table.values():
            listed = first.__class__ is list
            break
        else:
            listed = False
        if not listed:
            new = {{{k}: row for row in rows}}
            if len(new) == len(rows) and table.keys().isdisjoint(new):
                table.update(new)
                return
            table.update({{key: [row] for key, row in table.items()}})
        slot = table.setdefault
        for row in rows:
            slot({k}, []).append(row)
    return build""")


def table_rows(table: dict) -> List[tuple]:
    """A :func:`hash_build` table's rows, keys in first-seen order and
    each key's rows in arrival order -- the order a Grace partition
    writes them in, whichever form the table is in."""
    for first in table.values():
        if first.__class__ is list:
            return [row for rows in table.values() for row in rows]
        break
    return list(table.values())


def key_set(key: str, schema: Schema) -> Callable:
    """``add(keys, rows)``: the semi/anti-join build, a set of bare
    *key* column values."""
    src = _Source(schema)
    return src.close(
        f"    return lambda keys, rows: "
        f"keys.update([{src.expr(Col(key))} for row in rows])"
    )


def hash_probe(key: str, schema: Schema, kind: str, pad: int = 0) -> Callable:
    """The probe of a :func:`hash_build` table or :func:`key_set` set
    with a batch, one comprehension per batch.

    ``inner``: ``probe(table, rows)``, ``match + row`` per match, in
    probe order then build order.  ``outer``: ``row + match``, an
    unmatched row padded with *pad* Nones.  Either reads the table's
    form once per batch and runs that form's comprehension.  ``semi`` /
    ``anti``: ``probe(keys, rows)``, the rows whose key is / is not in
    the set.
    """
    src = _Source(schema)
    k = src.expr(Col(key))
    if kind in ("semi", "anti"):
        test = "in" if kind == "semi" else "not in"
        return src.close(
            f"    return lambda keys, rows: "
            f"[row for row in rows if {k} {test} keys]"
        )
    if kind == "inner":
        listed = f"[match + row for row in rows for match in get({k}, ())]"
        unique = f"[m + row for row in rows if (m := get({k})) is not None]"
    elif kind == "outer":
        # Lists in a listed table are never empty, so `or` means
        # "missing"; a unique table's row may be the falsy ().
        padding = (None,) * pad
        pad0, pad1 = src.const(padding), src.const((padding,))
        listed = (
            f"[row + match for row in rows for match in (get({k}) or {pad1})]"
        )
        unique = (
            f"[row + ({pad0} if (m := get({k})) is None else m) "
            f"for row in rows]"
        )
    else:
        raise ValueError(f"unknown probe kind {kind!r}")
    return src.close(f"""\
    def probe(table, rows):
        get = table.get
        for first in table.values():
            if first.__class__ is list:
                return {listed}
            break
        return {unique}
    return probe""")


def partition(
    key: str, schema: Schema, bucket_hash: Optional[Callable] = None
) -> Callable:
    """``split(rows, nparts)``: *nparts* buckets by the hash of the
    *key* column, rows keeping their order within a bucket.

    Without *bucket_hash* this is Grace partitioning, which hashes the
    1-tuple ``(value,)``, not the bare value: bucket sizes decide
    temp-file page counts, so the fan-out is simulated behaviour and
    stays the one the goldens were recorded with.  Routing between
    shards passes its process-independent hash of the bare value.
    """
    src = _Source(schema)
    value = src.expr(Col(key))
    hashed = (
        f"hash(({value},))" if bucket_hash is None
        else f"{src.const(bucket_hash)}({value})"
    )
    return src.close(f"""\
    def split(rows, nparts):
        buckets = [[] for _ in range(nparts)]
        for row in rows:
            buckets[{hashed} % nparts].append(row)
        return buckets
    return split""")
