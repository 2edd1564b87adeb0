"""DET -- determinism hazards.

The DES kernel's contract (DESIGN.md section 1) is byte-identical
replay from a seed: every differential test, chaos replay, and trace
invariant rests on it.  These rules flag the ways of breaking it that
the pinned renders and schedules do not see -- an order that only
moves on a tie or between processes, and a seed that escapes its
name (a wall clock or an unseeded draw in engine code moves a pinned
figure, so tier-1 catches those and no rule is kept for them):

* **DET004** ``id()`` in orderings or hashes: CPython object addresses
  differ run to run, so an ``id()`` inside a sort key or a ``hash()``
  makes the order (and anything downstream of it) irreproducible.
* **DET005** set-iteration order leaks: iterating a ``set`` directly
  (``for``, comprehension, ``list(...)``/``tuple(...)`` conversion)
  leaks hash order, which for strings is randomized per process.  Wrap
  the set in ``sorted(...)`` before its elements flow into trace
  events, scheduling, or output.
* **DET006** anonymous seed in experiment code: inside ``harness/`` and
  ``workloads/``, every ``random.Random(...)`` must be seeded through a
  *named* seed -- a constant from :mod:`repro.harness.config`
  (``FIG_QUERY_SEED``, ``CLIENT_SEED_BASE + i``...), a ``seed``
  parameter, or an expression derived from one.  A bare literal
  (``random.Random(42)``) or a loop index is an anonymous seed: the
  cell cache and the parallel fabric key results by *named* seeds
  recorded on the :class:`~repro.parallel.cells.CellSpec`, and an
  anonymous seed silently escapes that record.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.lint.findings import Finding, make_finding
from repro.lint.scopes import ModuleInfo, call_name, iter_scope

RULES: Dict[str, str] = {
    "DET004": "id() used in a sort key or hash; addresses vary per run.",
    "DET005": "Iteration over a set leaks hash order; sort it first.",
    "DET006": "Anonymous RNG seed in experiment code; use a named seed "
              "constant (see repro.harness.config).",
}

#: Directories whose modules hold experiment definitions; only there is
#: seed *provenance* (DET006) enforced.
_EXPERIMENT_DIRS = ("harness", "workloads")

_ORDERING_CALLS = frozenset({"sorted", "min", "max"})


def check(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield from _check_call(module, node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            yield from _check_set_iteration(module, node.iter, "for loop")
        elif isinstance(node, ast.comprehension):
            yield from _check_set_iteration(
                module, node.iter, "comprehension"
            )


# ---------------------------------------------------------------------------
# DET004 / DET006 -- call-shaped hazards
# ---------------------------------------------------------------------------
def _check_call(module: ModuleInfo, call: ast.Call) -> Iterator[Finding]:
    name = module.resolve(call_name(call.func))
    if name == "random.Random" and _in_experiment_code(module):
        args = list(call.args) + [kw.value for kw in call.keywords]
        if not any(_mentions_seed(arg) for arg in args):
            yield make_finding(
                module, call, "DET006",
                "random.Random() seeded anonymously in experiment code; "
                "seed it through a named constant (FIG_QUERY_SEED, "
                "CLIENT_SEED_BASE...) or a 'seed' parameter so the seed "
                "is recorded on the cell spec",
            )
    if name in _ORDERING_CALLS or (
        isinstance(call.func, ast.Attribute) and call.func.attr == "sort"
    ):
        for kw in call.keywords:
            if kw.arg == "key":
                yield from _flag_id_calls(module, kw.value, "sort key")
    elif name == "hash":
        for arg in call.args:
            yield from _flag_id_calls(module, arg, "hash()")


def _flag_id_calls(
    module: ModuleInfo, tree: ast.AST, where: str
) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and "id" not in module.imports
        ):
            yield make_finding(
                module, node, "DET004",
                f"id() inside a {where}: object addresses differ "
                f"between runs, so the resulting order is not "
                f"reproducible",
            )


# ---------------------------------------------------------------------------
# DET006 -- seed provenance in experiment code
# ---------------------------------------------------------------------------
def _in_experiment_code(module: ModuleInfo) -> bool:
    parts = module.rel.replace("\\", "/").split("/")
    return any(d in parts for d in _EXPERIMENT_DIRS)


def _mentions_seed(expr: ast.AST) -> bool:
    """Whether any identifier leaf of *expr* names a seed
    (``FIG_QUERY_SEED``, ``scale.seed``, a ``seed`` parameter...)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "seed" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "seed" in node.attr.lower():
            return True
    return False


# ---------------------------------------------------------------------------
# DET005 -- set-iteration order leaks
# ---------------------------------------------------------------------------
def _is_set_expr(
    module: ModuleInfo, expr: ast.AST, set_locals: Set[str]
) -> bool:
    """Statically set-typed: a set display/comprehension, a
    ``set()``/``frozenset()`` call, a local bound only to such
    expressions, or a binary operation over them (`` | & - ^ ``)."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = module.resolve(call_name(expr.func))
        if name in ("set", "frozenset") and name not in module.imports:
            return True
        return False
    if isinstance(expr, ast.Name):
        return expr.id in set_locals
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(module, expr.left, set_locals) or _is_set_expr(
            module, expr.right, set_locals
        )
    return False


def _set_locals_of(module: ModuleInfo, scope: ast.AST) -> Set[str]:
    """Names bound *only* to set-typed expressions within one scope."""
    bound: Dict[str, bool] = {}
    for node in iter_scope(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                is_set = _is_set_expr(module, node.value, set())
                prior = bound.get(target.id)
                bound[target.id] = is_set if prior is None else (
                    prior and is_set
                )
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            if not isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                        ast.BitXor)):
                bound[node.target.id] = False
    return {name for name, is_set in bound.items() if is_set}


def _check_set_iteration(
    module: ModuleInfo, iter_expr: ast.AST, where: str
) -> Iterator[Finding]:
    func = module.enclosing_function(iter_expr)
    scope = func.node if func is not None else module.tree
    set_locals = _set_locals_of(module, scope)
    if _is_set_expr(module, iter_expr, set_locals):
        yield make_finding(
            module, iter_expr, "DET005",
            f"{where} iterates a set directly; hash order is not "
            f"deterministic across runs -- iterate sorted(...) instead",
        )
