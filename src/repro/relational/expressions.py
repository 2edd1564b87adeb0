"""Scalar expressions, predicates, and aggregate specifications.

Expressions are plain trees; :mod:`repro.relational.compile` turns them
into generated per-batch kernels against a schema.  Every expression
has a canonical :meth:`~Expr.signature`, which the OSP
coordinator compares to detect overlapping computations (two packets
overlap only when their argument lists encode identically -- paper
section 4.3: "a quick check of the encoded argument list").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, Set

from repro.relational.schema import Schema

RowFn = Callable[[tuple], Any]

#: Operator spellings; the compiler emits them verbatim as Python.
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ARITH_OPS = ("+", "-", "*", "/")


class Expr:
    """Base class for scalar expressions."""

    def bind(self, schema: Schema) -> RowFn:
        """Compile to a row -> value callable against *schema*."""
        from repro.relational.compile import row_fn

        return row_fn(self, schema)

    def columns(self) -> Set[str]:
        """The column names this expression references."""
        raise NotImplementedError

    def signature(self) -> str:
        """Canonical encoding for overlap detection."""
        raise NotImplementedError

    # Operator sugar so plans read naturally: Col("a") > 5, (p1 & p2), etc.
    def __eq__(self, other):  # type: ignore[override]
        return Cmp("==", self, _lift(other))

    def __ne__(self, other):  # type: ignore[override]
        return Cmp("!=", self, _lift(other))

    def __lt__(self, other):
        return Cmp("<", self, _lift(other))

    def __le__(self, other):
        return Cmp("<=", self, _lift(other))

    def __gt__(self, other):
        return Cmp(">", self, _lift(other))

    def __ge__(self, other):
        return Cmp(">=", self, _lift(other))

    def __add__(self, other):
        return Arith("+", self, _lift(other))

    def __sub__(self, other):
        return Arith("-", self, _lift(other))

    def __mul__(self, other):
        return Arith("*", self, _lift(other))

    def __truediv__(self, other):
        return Arith("/", self, _lift(other))

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)

    def __hash__(self):
        return hash(self.signature())


def _lift(value: Any) -> "Expr":
    return value if isinstance(value, Expr) else Const(value)


class Col(Expr):
    """A column reference by name."""

    def __init__(self, name: str):
        self.name = name

    def columns(self):
        return {self.name}

    def signature(self):
        return f"col({self.name})"

    def __repr__(self):
        return f"Col({self.name!r})"


class Const(Expr):
    """A literal constant."""

    def __init__(self, value: Any):
        self.value = value

    def columns(self):
        return set()

    def signature(self):
        return f"const({self.value!r})"

    def __repr__(self):
        return f"Const({self.value!r})"


class Cmp(Expr):
    """A binary comparison."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self):
        return self.left.columns() | self.right.columns()

    def signature(self):
        return f"({self.left.signature()}{self.op}{self.right.signature()})"

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Arith(Expr):
    """Binary arithmetic."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH_OPS:
            raise ValueError(f"unknown arithmetic op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self):
        return self.left.columns() | self.right.columns()

    def signature(self):
        return f"({self.left.signature()}{self.op}{self.right.signature()})"


class And(Expr):
    def __init__(self, *terms: Expr):
        if not terms:
            raise ValueError("And needs at least one term")
        self.terms = terms

    def columns(self):
        out: Set[str] = set()
        for t in self.terms:
            out |= t.columns()
        return out

    def signature(self):
        return "and(" + "&".join(t.signature() for t in self.terms) + ")"


class Or(Expr):
    def __init__(self, *terms: Expr):
        if not terms:
            raise ValueError("Or needs at least one term")
        self.terms = terms

    def columns(self):
        out: Set[str] = set()
        for t in self.terms:
            out |= t.columns()
        return out

    def signature(self):
        return "or(" + "|".join(t.signature() for t in self.terms) + ")"


class Not(Expr):
    def __init__(self, term: Expr):
        self.term = term

    def columns(self):
        return self.term.columns()

    def signature(self):
        return f"not({self.term.signature()})"


class Between(Expr):
    """lo <= expr <= hi (inclusive both ends, like SQL BETWEEN)."""

    def __init__(self, expr: Expr, lo: Any, hi: Any):
        self.expr = _lift(expr)
        self.lo = lo
        self.hi = hi

    def columns(self):
        return self.expr.columns()

    def signature(self):
        return f"between({self.expr.signature()},{self.lo!r},{self.hi!r})"


class InList(Expr):
    """expr IN (v1, v2, ...)."""

    def __init__(self, expr: Expr, values: Sequence[Any]):
        self.expr = _lift(expr)
        self.values = frozenset(values)

    def columns(self):
        return self.expr.columns()

    def signature(self):
        encoded = ",".join(repr(v) for v in sorted(self.values, key=repr))
        return f"in({self.expr.signature()},[{encoded}])"


class Like(Expr):
    """A small LIKE: '%x%' contains, 'x%' prefix, '%x' suffix, else equal."""

    def __init__(self, expr: Expr, pattern: str):
        self.expr = _lift(expr)
        self.pattern = pattern

    def columns(self):
        return self.expr.columns()

    def signature(self):
        return f"like({self.expr.signature()},{self.pattern!r})"


class If(Expr):
    """SQL CASE WHEN cond THEN a ELSE b END (two-armed)."""

    def __init__(self, cond: Expr, then: Any, otherwise: Any):
        self.cond = cond
        self.then = _lift(then)
        self.otherwise = _lift(otherwise)

    def columns(self):
        return (
            self.cond.columns() | self.then.columns() | self.otherwise.columns()
        )

    def signature(self):
        return (
            f"if({self.cond.signature()},{self.then.signature()},"
            f"{self.otherwise.signature()})"
        )


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------
AGG_FUNCS = ("sum", "min", "max", "count", "avg")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``func`` over ``expr``, output column ``name``.

    ``count`` may take ``expr=None`` for COUNT(*).
    """

    func: str
    expr: Any = None  # Expr or None
    name: str = ""

    def __post_init__(self):
        if self.func not in AGG_FUNCS:
            raise ValueError(
                f"unknown aggregate {self.func!r}; expected one of {AGG_FUNCS}"
            )
        if self.expr is None and self.func != "count":
            raise ValueError(f"{self.func} requires an expression")
        if not self.name:
            object.__setattr__(self, "name", f"{self.func}")

    def signature(self) -> str:
        inner = self.expr.signature() if self.expr is not None else "*"
        return f"{self.func}({inner})"

    def make_state(self) -> "AggState":
        return AggState(self)


class AggState:
    """Mutable accumulator for one aggregate over one group."""

    __slots__ = ("spec", "count", "total", "best")

    def __init__(self, spec: AggSpec):
        self.spec = spec
        self.count = 0
        self.total = 0
        self.best = None

    def add(self, value: Any) -> None:
        func = self.spec.func
        self.count += 1
        if func in ("sum", "avg"):
            self.total += value
        elif func == "min":
            if self.best is None or value < self.best:
                self.best = value
        elif func == "max":
            if self.best is None or value > self.best:
                self.best = value
        # count needs nothing beyond the counter.

    def merge(self, other: "AggState") -> None:
        func = self.spec.func
        self.count += other.count
        if func in ("sum", "avg"):
            self.total += other.total
        elif func == "min":
            if other.best is not None and (
                self.best is None or other.best < self.best
            ):
                self.best = other.best
        elif func == "max":
            if other.best is not None and (
                self.best is None or other.best > self.best
            ):
                self.best = other.best

    def result(self) -> Any:
        func = self.spec.func
        if func == "count":
            return self.count
        if func == "sum":
            return self.total
        if func == "avg":
            return self.total / self.count if self.count else None
        return self.best
