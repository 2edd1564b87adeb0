"""The SQL planner: AST -> logical plan trees.

A deliberately simple, predictable planner:

* single-table WHERE conjuncts are pushed into the table scans (so
  SQL-submitted scans carry their own predicates, like the qgen plans);
* JOIN ... ON equality conditions become hash joins (LEFT JOIN becomes
  the outer-join operator); comma-joins find their equality conjunct in
  the WHERE clause, falling back to a nested-loop join;
* GROUP BY / aggregates map to GroupBy or Aggregate, HAVING to a Filter
  above them, DISTINCT / ORDER BY / LIMIT to their operators;
* join order is exactly the FROM order (left-deep) -- what you write is
  what runs, like the paper's precompiled plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.relational import compile
from repro.relational.expressions import (
    AggSpec,
    And,
    Arith,
    Between,
    Cmp,
    Col,
    Const,
    Expr,
    InList,
    Like,
    Not,
    Or,
)
from repro.relational.plans import (
    Aggregate,
    AntiJoin,
    Broadcast,
    DeleteRows,
    Distinct,
    Exchange,
    Filter,
    Gather,
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
    Shuffle,
    Sort,
    TableScan,
    UpdateRows,
    walk_plan,
)
from repro.sql.lexer import SqlError
from repro.sql.parser import (
    STAR,
    BetweenOp,
    BinaryOp,
    ColumnRef,
    DeleteStmt,
    ExistsOp,
    FuncCall,
    InOp,
    InsertStmt,
    IsNullOp,
    LikeOp,
    Literal,
    SelectStmt,
    UnaryOp,
    UpdateStmt,
    parse,
)

_CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}
_ARITH_OPS = {"+", "-", "*", "/"}


class _Scope:
    """Column-name resolution over the FROM tables."""

    def __init__(self, catalog, tables):
        self.catalog = catalog
        self.tables = tables  # list of TableRef
        self.aliases = [t.alias for t in tables]
        if len(set(self.aliases)) != len(self.aliases):
            raise SqlError("duplicate table aliases in FROM")
        self.qualify = len(tables) > 1
        #: bare column name -> list of aliases defining it
        self.bare: Dict[str, List[str]] = {}
        #: alias -> set of its column names
        self.columns: Dict[str, Set[str]] = {}
        for ref in tables:
            schema = catalog.table_schema(ref.table)
            self.columns[ref.alias] = set(schema.names)
            for name in schema.names:
                self.bare.setdefault(name, []).append(ref.alias)

    def resolve(self, col: ColumnRef) -> Tuple[str, str]:
        """-> (alias, output column name in the join tree's schema)."""
        if col.qualifier is not None:
            alias = col.qualifier
            if alias not in self.columns:
                raise SqlError(f"unknown table alias {alias!r}")
            if col.name not in self.columns[alias]:
                raise SqlError(f"no column {col.name!r} in {alias!r}")
        else:
            owners = self.bare.get(col.name)
            if not owners:
                raise SqlError(f"unknown column {col.name!r}")
            if len(owners) > 1:
                raise SqlError(
                    f"ambiguous column {col.name!r} (in {owners}); qualify it"
                )
            alias = owners[0]
        name = f"{alias}.{col.name}" if self.qualify else col.name
        return alias, name


class _Translator:
    """AST expression -> bound Expr + the set of aliases it references."""

    def __init__(self, scope: _Scope, bare_for_alias: Optional[str] = None):
        self.scope = scope
        #: When set, columns resolve to BARE names and must belong to this
        #: alias (scan-level pushdown binds against the base schema).
        self.bare_for_alias = bare_for_alias
        self.aliases: Set[str] = set()

    def column(self, col: ColumnRef) -> Expr:
        alias, name = self.scope.resolve(col)
        self.aliases.add(alias)
        if self.bare_for_alias is not None:
            if alias != self.bare_for_alias:
                raise SqlError(
                    f"column {col.display()} does not belong to "
                    f"{self.bare_for_alias!r}"
                )
            return Col(col.name)
        return Col(name)

    def expr(self, node) -> Expr:
        if isinstance(node, Literal):
            return Const(node.value)
        if isinstance(node, ColumnRef):
            return self.column(node)
        if isinstance(node, BinaryOp):
            if node.op == "AND":
                return And(self.expr(node.left), self.expr(node.right))
            if node.op == "OR":
                return Or(self.expr(node.left), self.expr(node.right))
            left, right = self.expr(node.left), self.expr(node.right)
            if node.op in _CMP_OPS:
                op = "==" if node.op == "=" else node.op
                return Cmp(op, left, right)
            if node.op in _ARITH_OPS:
                return Arith(node.op, left, right)
            raise SqlError(f"unsupported operator {node.op!r}")
        if isinstance(node, UnaryOp):
            if node.op == "NOT":
                return Not(self.expr(node.operand))
            if node.op == "-":
                return Arith("-", Const(0), self.expr(node.operand))
            raise SqlError(f"unsupported unary {node.op!r}")
        if isinstance(node, BetweenOp):
            inner = self.expr(node.expr)
            lo, hi = self.expr(node.lo), self.expr(node.hi)
            if not isinstance(lo, Const) or not isinstance(hi, Const):
                raise SqlError("BETWEEN bounds must be literals")
            made = Between(inner, lo.value, hi.value)
            return Not(made) if node.negated else made
        if isinstance(node, InOp):
            inner = self.expr(node.expr)
            values = []
            for value in node.values:
                bound = self.expr(value)
                if not isinstance(bound, Const):
                    raise SqlError("IN list entries must be literals")
                values.append(bound.value)
            made = InList(inner, values)
            return Not(made) if node.negated else made
        if isinstance(node, LikeOp):
            made = Like(self.expr(node.expr), node.pattern)
            return Not(made) if node.negated else made
        if isinstance(node, IsNullOp):
            made = Cmp("==", self.expr(node.expr), Const(None))
            return Not(made) if node.negated else made
        if isinstance(node, FuncCall):
            raise SqlError(
                "aggregate functions are only allowed in SELECT and HAVING"
            )
        raise SqlError(f"cannot translate {type(node).__name__}")


def _conjuncts(node) -> List:
    if isinstance(node, BinaryOp) and node.op == "AND":
        return _conjuncts(node.left) + _conjuncts(node.right)
    return [node]


def _referenced_aliases(node, scope: _Scope) -> Set[str]:
    translator = _Translator(scope)
    translator.expr(node)
    return translator.aliases


def _equi_pair(node, scope: _Scope):
    """col_a = col_b across two different aliases, else None."""
    if not (isinstance(node, BinaryOp) and node.op == "="):
        return None
    if not (
        isinstance(node.left, ColumnRef) and isinstance(node.right, ColumnRef)
    ):
        return None
    left_alias, left_name = scope.resolve(node.left)
    right_alias, right_name = scope.resolve(node.right)
    if left_alias == right_alias:
        return None
    return (left_alias, left_name), (right_alias, right_name)


class _Planner:
    def __init__(self, catalog):
        self.catalog = catalog

    # ------------------------------------------------------------------
    def plan(self, stmt: SelectStmt) -> PlanNode:
        scope = _Scope(self.catalog, stmt.tables)
        where = _conjuncts(stmt.where) if stmt.where is not None else []

        # EXISTS / NOT EXISTS conjuncts compile to semi/anti joins over
        # the join tree; peel them off before alias partitioning.
        semis: List[Tuple[bool, ExistsOp]] = []
        plain: List = []
        for conjunct in where:
            if isinstance(conjunct, ExistsOp):
                semis.append((False, conjunct))
            elif (
                isinstance(conjunct, UnaryOp)
                and conjunct.op == "NOT"
                and isinstance(conjunct.operand, ExistsOp)
            ):
                semis.append((True, conjunct.operand))
            else:
                plain.append(conjunct)

        # Partition WHERE conjuncts by the aliases they touch.
        pushdown: Dict[str, List] = {alias: [] for alias in scope.aliases}
        joinable: List = []
        residual: List = []
        for conjunct in plain:
            aliases = _referenced_aliases(conjunct, scope)
            if len(aliases) == 1:
                pushdown[next(iter(aliases))].append(conjunct)
            elif _equi_pair(conjunct, scope) is not None:
                joinable.append(conjunct)
            else:
                residual.append(conjunct)

        node = self._join_tree(stmt, scope, pushdown, joinable, residual)
        for negated, exists in semis:
            node = self._semi_join(node, scope, exists, negated)
        node = self._aggregate_or_project(stmt, scope, node)
        if stmt.distinct:
            node = Distinct(node)
        if stmt.order_by:
            node = self._sort(stmt, node)
        if stmt.limit is not None:
            node = Limit(node, stmt.limit, stmt.offset)
        return node

    # ------------------------------------------------------------------
    def _scan(self, ref, scope: _Scope, pushdown) -> PlanNode:
        predicate = None
        if pushdown[ref.alias]:
            translator = _Translator(scope, bare_for_alias=ref.alias)
            bound = [translator.expr(c) for c in pushdown[ref.alias]]
            predicate = bound[0] if len(bound) == 1 else And(*bound)
        alias = ref.alias if scope.qualify else None
        return TableScan(ref.table, predicate=predicate, alias=alias)

    def _join_tree(self, stmt, scope, pushdown, joinable, residual) -> PlanNode:
        refs = stmt.tables
        node = self._scan(refs[0], scope, pushdown)
        joined = {refs[0].alias}
        for ref in refs[1:]:
            right = self._scan(ref, scope, pushdown)
            condition = None
            extra_on: List = []
            if ref.condition is not None:
                for conjunct in _conjuncts(ref.condition):
                    pair = _equi_pair(conjunct, scope)
                    if pair is not None and condition is None:
                        condition = pair
                    else:
                        extra_on.append(conjunct)
            else:
                # Comma join: claim a WHERE equality linking this table
                # to something already joined.
                for conjunct in list(joinable):
                    pair = _equi_pair(conjunct, scope)
                    (la, _ln), (ra, _rn) = pair
                    if {la, ra} & joined and ref.alias in (la, ra):
                        condition = pair
                        joinable.remove(conjunct)
                        break
            if condition is not None:
                (la, ln), (ra, rn) = condition
                if ra == ref.alias:
                    left_key, right_key = ln, rn
                elif la == ref.alias:
                    left_key, right_key = rn, ln
                else:
                    raise SqlError(
                        f"ON condition of {ref.alias!r} references other tables"
                    )
                if ref.join_type == "left":
                    node = LeftOuterJoin(node, right, left_key, right_key)
                else:
                    node = HashJoin(node, right, left_key, right_key)
            else:
                if ref.join_type == "left":
                    raise SqlError("LEFT JOIN requires an equality ON clause")
                translator = _Translator(scope)
                node = NLJoin(node, right, predicate=Const(True))
            joined.add(ref.alias)
            for conjunct in extra_on:
                translator = _Translator(scope)
                node = Filter(node, translator.expr(conjunct))
        # Remaining join-shaped and residual conjuncts filter the tree.
        for conjunct in joinable + residual:
            translator = _Translator(scope)
            node = Filter(node, translator.expr(conjunct))
        return node

    # ------------------------------------------------------------------
    def _semi_join(self, node, outer_scope, exists: ExistsOp, negated: bool):
        """EXISTS (SELECT ... FROM inner WHERE inner.k = outer.k AND ...)
        -> SemiJoin/AntiJoin(outer_tree, inner_scan, outer.k, inner.k)."""
        sub = exists.subquery
        if len(sub.tables) != 1 or sub.group_by or sub.order_by or sub.limit:
            raise SqlError(
                "EXISTS subqueries must be a single-table SELECT with "
                "only a WHERE clause"
            )
        inner_ref = sub.tables[0]
        inner_schema = self.catalog.table_schema(inner_ref.table)
        inner_cols = set(inner_schema.names)

        correlation = None
        inner_preds: List = []
        for conjunct in (
            _conjuncts(sub.where) if sub.where is not None else []
        ):
            pair = self._correlation_pair(
                conjunct, inner_ref, inner_cols, outer_scope
            )
            if pair is not None and correlation is None:
                correlation = pair
                continue
            inner_preds.append(conjunct)

        if correlation is None:
            raise SqlError(
                "EXISTS subquery needs an equality correlating it to the "
                "outer query (inner.col = outer.col)"
            )
        inner_col, outer_name = correlation

        predicate = None
        if inner_preds:
            translator = _SubqueryTranslator(inner_ref, inner_cols)
            bound = [translator.expr(c) for c in inner_preds]
            predicate = bound[0] if len(bound) == 1 else And(*bound)
        inner_scan = TableScan(inner_ref.table, predicate=predicate)
        join_cls = AntiJoin if negated else SemiJoin
        return join_cls(node, inner_scan, outer_name, inner_col)

    def _correlation_pair(self, conjunct, inner_ref, inner_cols, outer_scope):
        """inner.col = outer.col (either side order) -> (inner, outer)."""
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        left, right = conjunct.left, conjunct.right
        if not (
            isinstance(left, ColumnRef) and isinstance(right, ColumnRef)
        ):
            return None

        def side(col: ColumnRef) -> Optional[str]:
            """The inner bare column name, or None if it is outer."""
            if col.qualifier == inner_ref.alias:
                return col.name
            if col.qualifier is None and col.name in inner_cols:
                return col.name
            return None

        left_inner, right_inner = side(left), side(right)
        if (left_inner is None) == (right_inner is None):
            return None  # both inner or both outer: not a correlation
        inner_col = left_inner if left_inner is not None else right_inner
        outer_col = right if left_inner is not None else left
        _alias, outer_name = outer_scope.resolve(outer_col)
        return inner_col, outer_name

    # ------------------------------------------------------------------
    def _aggregate_or_project(self, stmt, scope, node) -> PlanNode:
        has_aggs = any(
            isinstance(item.expr, FuncCall) for item in stmt.items
        )
        if not has_aggs and not stmt.group_by:
            if stmt.having is not None:
                raise SqlError("HAVING requires GROUP BY or aggregates")
            return self._project(stmt, scope, node)

        translator = _Translator(scope)
        group_names = [scope.resolve(c)[1] for c in stmt.group_by]

        # Collect aggregates from SELECT (and HAVING, as hidden specs).
        specs: List[AggSpec] = []
        spec_names: List[str] = []

        def spec_for(call: FuncCall, alias: Optional[str]) -> str:
            func = call.func.lower()
            expr = None if call.arg is None else translator.expr(call.arg)
            name = alias or f"{func}_{len(specs)}"
            spec = AggSpec(func, expr, name)
            signature = spec.signature()
            for existing in specs:
                if existing.signature() == signature:
                    return existing.name
            specs.append(spec)
            spec_names.append(name)
            return name

        output_names: List[str] = []
        for item in stmt.items:
            if item.expr is STAR:
                raise SqlError("SELECT * cannot be combined with GROUP BY")
            if isinstance(item.expr, FuncCall):
                output_names.append(spec_for(item.expr, item.alias))
            elif isinstance(item.expr, ColumnRef):
                _alias, name = scope.resolve(item.expr)
                if name not in group_names:
                    raise SqlError(
                        f"column {name!r} must appear in GROUP BY"
                    )
                output_names.append(item.alias or item.expr.name)
            else:
                raise SqlError(
                    "grouped SELECT items must be columns or aggregates"
                )

        having_expr = None
        if stmt.having is not None:
            having_expr = self._translate_having(
                stmt.having, scope, spec_for, group_names
            )

        if group_names:
            node = GroupBy(node, group_names, specs)
            # GroupBy emits group cols then agg cols under their own names.
            emitted = group_names + spec_names
        else:
            node = Aggregate(node, specs)
            emitted = spec_names
            if any(
                isinstance(item.expr, ColumnRef) for item in stmt.items
            ):
                raise SqlError("plain columns need a GROUP BY")

        if having_expr is not None:
            node = Filter(node, having_expr)

        # Reorder/rename to the SELECT list.
        source_names = []
        for item, out in zip(stmt.items, output_names):
            if isinstance(item.expr, FuncCall):
                source_names.append(out)  # spec name == output name
            else:
                _alias, name = scope.resolve(item.expr)
                source_names.append(name)
        if source_names != emitted or output_names != emitted:
            node = _rename_project(node, source_names, output_names)
        return node

    def _translate_having(self, having, scope, spec_for, group_names) -> Expr:
        """HAVING over group columns and aggregate calls."""

        def walk(node) -> Expr:
            if isinstance(node, FuncCall):
                return Col(spec_for(node, None))
            if isinstance(node, BinaryOp):
                if node.op == "AND":
                    return And(walk(node.left), walk(node.right))
                if node.op == "OR":
                    return Or(walk(node.left), walk(node.right))
                left, right = walk(node.left), walk(node.right)
                if node.op in _CMP_OPS:
                    return Cmp(
                        "==" if node.op == "=" else node.op, left, right
                    )
                return Arith(node.op, left, right)
            if isinstance(node, UnaryOp) and node.op == "NOT":
                return Not(walk(node.operand))
            if isinstance(node, ColumnRef):
                _alias, name = scope.resolve(node)
                if name not in group_names:
                    raise SqlError(
                        f"HAVING column {name!r} must be grouped"
                    )
                return Col(name)
            if isinstance(node, Literal):
                return Const(node.value)
            raise SqlError(
                f"unsupported HAVING construct {type(node).__name__}"
            )

        return walk(having)

    # ------------------------------------------------------------------
    def _project(self, stmt, scope, node) -> PlanNode:
        if len(stmt.items) == 1 and stmt.items[0].expr is STAR:
            return node
        names: List[str] = []
        exprs: List[Expr] = []
        simple = True
        for item in stmt.items:
            if item.expr is STAR:
                raise SqlError("* must be the only SELECT item")
            translator = _Translator(scope)
            bound = translator.expr(item.expr)
            if isinstance(item.expr, ColumnRef):
                _alias, name = scope.resolve(item.expr)
                names.append(item.alias or item.expr.name)
                exprs.append(bound)
                if item.alias and item.alias != name:
                    simple = False
            else:
                simple = False
                names.append(item.alias or f"expr_{len(names)}")
                exprs.append(bound)
        if simple:
            source = [
                scope.resolve(item.expr)[1] for item in stmt.items
            ]
            return Project(node, source)
        return Project(node, names, exprs=exprs)

    def _sort(self, stmt, node) -> PlanNode:
        schema = node.output_schema(self.catalog)
        keys, direction = [], None
        for item in stmt.order_by:
            name = item.column
            if name not in schema:
                # Allow qualified names emitted by multi-table scopes.
                matches = [n for n in schema.names if n.endswith("." + name)]
                if len(matches) == 1:
                    name = matches[0]
                else:
                    raise SqlError(f"ORDER BY column {item.column!r} unknown")
            if direction is None:
                direction = item.descending
            elif direction != item.descending:
                raise SqlError("mixed ASC/DESC is not supported")
            keys.append(name)
        return Sort(node, keys, descending=bool(direction))


class _SubqueryTranslator(_Translator):
    """Translates an EXISTS subquery's inner-only predicates to bare
    column references against the inner table's base schema."""

    def __init__(self, inner_ref, inner_cols):
        self.inner_ref = inner_ref
        self.inner_cols = inner_cols
        self.aliases = set()

    def column(self, col: ColumnRef) -> Expr:
        if col.qualifier not in (None, self.inner_ref.alias):
            raise SqlError(
                f"subquery predicate references outer table "
                f"{col.qualifier!r}; only one correlation equality is "
                "supported"
            )
        if col.name not in self.inner_cols:
            raise SqlError(
                f"no column {col.name!r} in {self.inner_ref.table!r}"
            )
        return Col(col.name)


def _rename_project(node, source_names, output_names) -> PlanNode:
    if list(source_names) == list(output_names):
        return Project(node, source_names)
    return Project(
        node, output_names, exprs=[Col(name) for name in source_names]
    )


def _plan_dml(stmt, catalog) -> PlanNode:
    schema = catalog.table_schema(stmt.table)
    if isinstance(stmt, InsertStmt):
        for row in stmt.rows:
            if len(row) != len(schema):
                raise SqlError(
                    f"INSERT arity {len(row)} != {len(schema)} columns "
                    f"of {stmt.table!r}"
                )
        return InsertRows(stmt.table, stmt.rows)

    predicate = None
    if stmt.where is not None:
        scope = _Scope(catalog, [_DmlRef(stmt.table)])
        translator = _Translator(scope, bare_for_alias=stmt.table)
        bound = [translator.expr(c) for c in _conjuncts(stmt.where)]
        predicate = bound[0] if len(bound) == 1 else And(*bound)

    if isinstance(stmt, DeleteStmt):
        return DeleteRows(stmt.table, predicate)

    # UPDATE: compile SET assignments into a row -> row function.
    scope = _Scope(catalog, [_DmlRef(stmt.table)])
    translator = _Translator(scope, bare_for_alias=stmt.table)
    assignments = []
    for column, expr in stmt.assignments:
        if column not in schema:
            raise SqlError(f"no column {column!r} in {stmt.table!r}")
        assignments.append(
            (schema.index_of(column),
             compile.row_fn(translator.expr(expr), schema))
        )

    def apply(row: tuple) -> tuple:
        out = list(row)
        for idx, value in assignments:
            out[idx] = value(row)
        return tuple(out)

    return UpdateRows(stmt.table, predicate, apply)


class _DmlRef:
    """A minimal TableRef stand-in for single-table DML scopes."""

    def __init__(self, table: str):
        self.table = table
        self.alias = table
        self.join_type = "inner"
        self.condition = None


def plan(sql: str, catalog) -> PlanNode:
    """Compile one statement (SELECT/INSERT/UPDATE/DELETE) to a plan."""
    stmt = parse(sql)
    if isinstance(stmt, (InsertStmt, UpdateStmt, DeleteStmt)):
        return _plan_dml(stmt, catalog)
    return _Planner(catalog).plan(stmt)


# ---------------------------------------------------------------------------
# Cardinality estimation
# ---------------------------------------------------------------------------
#: Fallback selectivity for predicate shapes the estimator cannot grade.
_DEFAULT_SELECTIVITY = 0.5


def _expr_selectivity(expr) -> float:
    """Deterministic textbook selectivity constants, no data peeking."""
    if isinstance(expr, Cmp):
        if expr.op == "==":
            return 0.1
        if expr.op == "!=":
            return 0.9
        return 1 / 3
    if isinstance(expr, And):
        sel = 1.0
        for term in expr.terms:
            sel *= _expr_selectivity(term)
        return sel
    if isinstance(expr, Or):
        return min(1.0, sum(_expr_selectivity(t) for t in expr.terms))
    if isinstance(expr, Not):
        return max(0.0, 1.0 - _expr_selectivity(expr.term))
    if isinstance(expr, Between):
        return 0.25
    if isinstance(expr, InList):
        return min(1.0, 0.1 * len(expr.values))
    if isinstance(expr, Like):
        return 0.25
    return _DEFAULT_SELECTIVITY


# ---------------------------------------------------------------------------
# Normalized predicate forms + the subsumption lattice (repro.folding)
# ---------------------------------------------------------------------------
#
# ``predicate_implies(p, q)`` is a *sound, conservative* implication
# test: True only when every row satisfying ``p`` must satisfy ``q``
# (False means "could not prove it", never "disproved").  Conjunctions
# of single-column comparisons against constants, BETWEEN, and IN-lists
# normalize into per-column domains (an interval plus an optional finite
# value set); anything else falls back to exact signature matching,
# which keeps the test safe for arbitrary expressions.  The fold
# coordinator uses the lattice to decide whether a late query may ride
# an in-flight widened scan with only a residual filter.

_CMP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


class _Domain:
    """The values one column may take under a conjunctive predicate."""

    __slots__ = ("lo", "lo_incl", "hi", "hi_incl", "allowed")

    def __init__(self):
        self.lo = None         # None: unbounded below
        self.lo_incl = True
        self.hi = None         # None: unbounded above
        self.hi_incl = True
        self.allowed = None    # frozenset of values, None: no finite bound

    # -- narrowing (intersection with one atom's constraint) ----------------
    def clamp_lo(self, value, inclusive: bool) -> None:
        if self.lo is None or value > self.lo or (
            value == self.lo and not inclusive
        ):
            self.lo = value
            self.lo_incl = inclusive

    def clamp_hi(self, value, inclusive: bool) -> None:
        if self.hi is None or value < self.hi or (
            value == self.hi and not inclusive
        ):
            self.hi = value
            self.hi_incl = inclusive

    def restrict(self, values) -> None:
        values = frozenset(values)
        self.allowed = (
            values if self.allowed is None else self.allowed & values
        )


def _pred_conjuncts(expr: Expr) -> List[Expr]:
    if isinstance(expr, And):
        out: List[Expr] = []
        for term in expr.terms:
            out.extend(_pred_conjuncts(term))
        return out
    return [expr]


def _atom_constraint(atom: Expr):
    """``(column, kind, payload)`` for a supported atomic predicate.

    ``kind`` is ``"lo"``/``"hi"`` (payload ``(value, inclusive)``),
    ``"between"`` (payload ``(lo, hi)``), or ``"in"`` (payload a value
    set).  None means the atom has no per-column normal form.
    """
    if isinstance(atom, Between) and isinstance(atom.expr, Col):
        return atom.expr.name, "between", (atom.lo, atom.hi)
    if isinstance(atom, InList) and isinstance(atom.expr, Col):
        return atom.expr.name, "in", atom.values
    if isinstance(atom, Cmp):
        op, left, right = atom.op, atom.left, atom.right
        if isinstance(left, Const) and isinstance(right, Col):
            op, left, right = _CMP_FLIP[op], right, left
        if not (isinstance(left, Col) and isinstance(right, Const)):
            return None
        value = right.value
        if op == "==":
            return left.name, "in", frozenset((value,))
        if op == "<":
            return left.name, "hi", (value, False)
        if op == "<=":
            return left.name, "hi", (value, True)
        if op == ">":
            return left.name, "lo", (value, False)
        if op == ">=":
            return left.name, "lo", (value, True)
    return None


def _apply_constraint(domain: _Domain, kind: str, payload) -> None:
    if kind == "lo":
        domain.clamp_lo(*payload)
    elif kind == "hi":
        domain.clamp_hi(*payload)
    elif kind == "between":
        domain.clamp_lo(payload[0], True)
        domain.clamp_hi(payload[1], True)
    else:
        domain.restrict(payload)


def normalize_predicate(expr: Expr) -> Optional[Dict[str, _Domain]]:
    """Per-column :class:`_Domain` map for a conjunctive predicate.

    Unsupported conjuncts are skipped, so the returned domains describe
    a *superset* of the rows the predicate accepts -- exactly the safe
    direction for the left-hand side of :func:`predicate_implies`.
    Returns None when a constraint is unrepresentable (the constants do
    not form a total order).
    """
    domains: Dict[str, _Domain] = {}
    for atom in _pred_conjuncts(expr):
        spec = _atom_constraint(atom)
        if spec is None:
            continue
        column, kind, payload = spec
        domain = domains.setdefault(column, _Domain())
        try:
            _apply_constraint(domain, kind, payload)
        except TypeError:
            return None
    return domains


def _value_in(domain: _Domain, value) -> bool:
    if domain.allowed is not None and value not in domain.allowed:
        return False
    if domain.lo is not None:
        if value < domain.lo or (value == domain.lo and not domain.lo_incl):
            return False
    if domain.hi is not None:
        if value > domain.hi or (value == domain.hi and not domain.hi_incl):
            return False
    return True


def _domain_within(inner: _Domain, outer: _Domain) -> bool:
    """Whether every value of *inner* lies inside *outer* (conservative)."""
    if inner.allowed is not None:
        return all(_value_in(outer, v) for v in inner.allowed)
    if outer.allowed is not None:
        return False  # an interval cannot prove finite-set membership
    if outer.lo is not None:
        if inner.lo is None or inner.lo < outer.lo:
            return False
        if inner.lo == outer.lo and inner.lo_incl and not outer.lo_incl:
            return False
    if outer.hi is not None:
        if inner.hi is None or inner.hi > outer.hi:
            return False
        if inner.hi == outer.hi and inner.hi_incl and not outer.hi_incl:
            return False
    return True


def _atom_implied(p_domains, p_signatures, q_atom: Expr) -> bool:
    if q_atom.signature() in p_signatures:
        return True  # syntactically present among p's conjuncts
    spec = _atom_constraint(q_atom)
    if spec is None:
        return False
    column, kind, payload = spec
    inner = p_domains.get(column)
    if inner is None:
        return False  # p does not constrain this column at all
    outer = _Domain()
    try:
        _apply_constraint(outer, kind, payload)
        return _domain_within(inner, outer)
    except TypeError:
        return False


def predicate_implies(p: Optional[Expr], q: Optional[Expr]) -> bool:
    """Sound implication: True only when ``p`` entails ``q``.

    None is the match-everything predicate.  A False answer means
    "could not prove" -- callers must treat it as "do not fold", never
    as a disproof.
    """
    if q is None:
        return True
    if p is None:
        return False
    if p.signature() == q.signature():
        return True
    if isinstance(p, Or):
        return all(predicate_implies(term, q) for term in p.terms)
    if isinstance(q, And):
        return all(predicate_implies(p, term) for term in q.terms)
    if isinstance(q, Or):
        return any(predicate_implies(p, term) for term in q.terms)
    p_domains = normalize_predicate(p)
    if p_domains is None:
        return False
    p_signatures = {atom.signature() for atom in _pred_conjuncts(p)}
    return _atom_implied(p_domains, p_signatures, q)


def fold_union(p: Optional[Expr], q: Optional[Expr]) -> Optional[Expr]:
    """The widened predicate covering both *p* and *q* (None: match all).

    Prefers the wider of the two when one subsumes the other, so a chain
    of nested predicates widens to a single term instead of a deep Or.
    """
    if p is None or q is None:
        return None
    if predicate_implies(q, p):
        return p
    if predicate_implies(p, q):
        return q
    if isinstance(p, Or):
        return Or(*p.terms, q)
    return Or(p, q)


def predicate_selectivity(expr: Optional[Expr]) -> float:
    """Estimated selectivity of a scan predicate (1.0 when absent)."""
    if expr is None:
        return 1.0
    return _expr_selectivity(expr)


# ---------------------------------------------------------------------------
# Distributed planning (sharded execution; DESIGN.md section 16)
# ---------------------------------------------------------------------------
#
# ``plan_distributed`` splits a logical plan into (a) one *fragment*
# that every shard runs against its local partitions, (b) an exchange
# edge moving the fragment outputs, and (c) a *suffix* of unary
# operators the coordinator applies to the assembled stream.  The split
# is chosen so the final rows are **byte-identical** to the single-host
# run: float accumulation is order-sensitive, so the analysis only
# declares a subtree shard-safe when concatenating its per-shard outputs
# in shard order reproduces the single-host row order (range partitions
# are contiguous slices of stored order, which is what makes this hold;
# that is why a stored table has no hash scheme, see
# repro.storage.partition).

#: Per-join "order-driving" side: which input's row order the join's
#: output order follows in the reference operators
#: (repro.baseline.operators).  The partitioned table must live on this
#: side; the other side must be replicated (every shard joins its slice
#: of the driver against the complete other relation).
_JOIN_DRIVER = {
    HashJoin: 1,        # build left, probe right: probe order drives
    NLJoin: 0,          # outer loop over the left input
    SemiJoin: 0,        # left rows filtered by the right key set
    AntiJoin: 0,
    LeftOuterJoin: 0,   # left rows probe the right build table
}

#: Unary operators with *global* semantics: correct only over the whole
#: input, so they peel off the fragment into the coordinator suffix.
_SUFFIX_OPS = (Aggregate, GroupBy, Sort, Limit, Distinct, Filter, Project)


class UnshardablePlan(ValueError):
    """No supported fragment/exchange/suffix split exists for the plan."""


@dataclass(frozen=True)
class DistributedPlan:
    """One distributed execution recipe (see :func:`plan_distributed`).

    ``strategy`` is one of:

    * ``local``     -- no partitioned tables: the coordinator's own
      engine runs the whole plan (every shard holds all referenced
      tables in full).
    * ``gather``    -- every shard runs ``fragment``; outputs stream to
      the coordinator strictly in shard order; ``suffix`` applies there.
    * ``shuffle``   -- every shard runs ``fragment``, hash-partitions
      its output rows on ``shuffle_key``, and ships each bucket to its
      owning shard; shards aggregate their buckets (``groupby``), the
      disjoint group rows gather to the coordinator, and ``suffix``
      applies above.
    * ``broadcast`` -- a partitioned-x-partitioned hash join:
      ``build_fragment`` runs per shard and broadcasts everywhere; each
      shard builds the complete hash table (per-source streams
      assembled in shard order = global build order) and probes its
      local ``fragment``; probe outputs gather in shard order.

    ``suffix`` is in bottom-up application order (innermost operator
    first).  ``tree`` is the annotated logical plan with explicit
    :class:`~repro.relational.plans.Exchange` nodes, used for
    signatures, tracing, and tests.
    """

    strategy: str
    fragment: PlanNode
    suffix: Tuple[PlanNode, ...] = ()
    build_fragment: Optional[PlanNode] = None
    join: Optional[PlanNode] = None
    groupby: Optional[GroupBy] = None
    shuffle_key: Optional[str] = None
    tree: Optional[PlanNode] = None

    def signature(self, catalog) -> str:
        tree = self.tree if self.tree is not None else self.fragment
        return f"dist:{self.strategy}:{tree.signature(catalog)}"


def partitioned_tables(plan: PlanNode, catalog) -> List[str]:
    """Names of referenced tables that are split across shards."""
    names: List[str] = []
    for node in walk_plan(plan):
        if isinstance(node, (TableScan, IndexScan)):
            info = catalog.table(node.table)
            part = info.partitioning
            if (
                part is not None
                and part.partitioned
                and node.table not in names
            ):
                names.append(node.table)
    return names


def _shard_safe(node: PlanNode, catalog) -> Tuple[bool, int]:
    """``(safe, npart)`` for running *node* once per shard.

    ``safe`` with ``npart >= 1`` means: concatenating the per-shard
    outputs in shard order reproduces the single-host output (rows and
    order).  ``safe`` with ``npart == 0`` means: every shard produces an
    *identical copy* of the single-host output (all inputs replicated).
    Both readings compose through the join rules below.
    """
    if isinstance(node, TableScan):
        part = catalog.table(node.table).partitioning
        return True, (1 if part is not None and part.partitioned else 0)
    if isinstance(node, IndexScan):
        part = catalog.table(node.table).partitioning
        if part is not None and part.partitioned:
            return False, 1  # per-shard index order != global key order
        return True, 0
    if isinstance(node, (Filter, Project)):
        return _shard_safe(node.child, catalog)  # row-wise: order-safe
    if isinstance(node, _SUFFIX_OPS):
        # Global semantics: only safe when the input is fully replicated
        # (each shard computes the same complete answer).
        safe, npart = _shard_safe(node.children[0], catalog)
        return (safe and npart == 0), npart
    driver = _JOIN_DRIVER.get(type(node))
    if driver is not None:
        dsafe, dn = _shard_safe(node.children[driver], catalog)
        osafe, on = _shard_safe(node.children[1 - driver], catalog)
        # The non-driver side must be complete on every shard; the
        # driver side's shard order then drives the output order.
        return (dsafe and osafe and on == 0), dn + on
    if isinstance(node, MergeJoin):
        # Key-interleaved output order: shard-order concatenation never
        # reproduces it unless both sides are replicated.
        lsafe, ln = _shard_safe(node.left, catalog)
        rsafe, rn = _shard_safe(node.right, catalog)
        return (lsafe and rsafe and ln == 0 and rn == 0), ln + rn
    if isinstance(node, Exchange):
        raise UnshardablePlan(
            f"plan already contains a {node.op_name} exchange node"
        )
    return False, 0


def _reapply(op: PlanNode, child: PlanNode) -> PlanNode:
    """Rebuild one suffix operator over a new child (tree annotation)."""
    if isinstance(op, Filter):
        return Filter(child, op.predicate)
    if isinstance(op, Project):
        return Project(child, op.names, exprs=op.exprs)
    if isinstance(op, Sort):
        return Sort(child, op.keys, descending=op.descending)
    if isinstance(op, Aggregate):
        return Aggregate(child, op.aggs)
    if isinstance(op, GroupBy):
        return GroupBy(child, op.group_cols, op.aggs)
    if isinstance(op, Limit):
        return Limit(child, op.count, op.offset)
    if isinstance(op, Distinct):
        return Distinct(child)
    raise UnshardablePlan(f"cannot re-root {type(op).__name__}")


def _annotate(base: PlanNode, suffix: Sequence[PlanNode]) -> PlanNode:
    tree = base
    for op in suffix:
        tree = _reapply(op, tree)
    return tree


def plan_distributed(plan: PlanNode, catalog) -> DistributedPlan:
    """Split *plan* into fragment + exchange + coordinator suffix.

    Args:
        plan: the logical plan (single-host shape, no Exchange nodes).
        catalog: any shard's catalog -- schemas and partitioning
            metadata are identical on every shard.

    A GroupBy directly above the fragment re-partitions its input by
    group key, so the grouping work parallelizes across shards
    (all-to-all traffic instead of an N-to-1 gather of ungrouped rows).

    Raises:
        UnshardablePlan: when no supported split exists (e.g. a
        partitioned table on the non-driving side of a join, or a
        partitioned MergeJoin input).
    """
    if not partitioned_tables(plan, catalog):
        return DistributedPlan(strategy="local", fragment=plan, tree=plan)

    peeled: List[PlanNode] = []  # root-first
    node = plan
    while True:
        safe, npart = _shard_safe(node, catalog)
        if safe and npart >= 1:
            break
        if isinstance(node, _SUFFIX_OPS):
            peeled.append(node)
            node = node.children[0]
            continue
        if isinstance(node, HashJoin):
            lsafe, ln = _shard_safe(node.left, catalog)
            rsafe, rn = _shard_safe(node.right, catalog)
            if lsafe and rsafe and ln >= 1 and rn >= 1:
                suffix = tuple(reversed(peeled))
                tree = _annotate(
                    Gather(
                        HashJoin(
                            Broadcast(node.left),
                            node.right,
                            node.left_key,
                            node.right_key,
                        )
                    ),
                    suffix,
                )
                return DistributedPlan(
                    strategy="broadcast",
                    fragment=node.right,
                    suffix=suffix,
                    build_fragment=node.left,
                    join=node,
                    tree=tree,
                )
        raise UnshardablePlan(
            f"{type(node).__name__} cannot sit between a partitioned "
            f"fragment and the coordinator suffix "
            f"(signature: {node.signature(catalog)})"
        )

    suffix = tuple(reversed(peeled))  # bottom-up application order
    if suffix and isinstance(suffix[0], GroupBy):
        groupby = suffix[0]
        key = groupby.group_cols[0]
        tree = _annotate(
            Gather(_reapply(groupby, Shuffle(node, key))), suffix[1:]
        )
        return DistributedPlan(
            strategy="shuffle",
            fragment=node,
            suffix=suffix[1:],
            groupby=groupby,
            shuffle_key=key,
            tree=tree,
        )
    return DistributedPlan(
        strategy="gather",
        fragment=node,
        suffix=suffix,
        tree=_annotate(Gather(node), suffix),
    )
