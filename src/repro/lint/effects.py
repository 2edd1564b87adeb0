"""Transitive effect inference over the call graph.

Every function gets an :class:`EffectSummary`:

* **host-I/O origins** -- concrete source locations where the function
  (or anything it transitively calls) performs host I/O.  Origins
  survive propagation, so a cell-purity finding can name the exact
  line that made a ``@cell`` impure.
* **resource deltas** -- per resource kind (lock / temp file): whether
  the function *transfers* a freshly acquired resource to its caller
  (returns it or stores it into a caller-owned container), and whether
  it *releases* resources of that kind.  The escape pass treats a call
  to a transferring helper as an acquire at the call site and a call to
  a releasing helper as a release.

Propagation discipline: origins flow over precise **and** fuzzy call
edges (purity is a universal claim; over-approximation is the sound
direction).  Releases flow over precise edges only (a fabricated edge
there would fabricate escape findings).

An origin whose line carries a ``# simlint: disable=IPR203`` comment is
a *designated* impurity and is dropped at extraction, so one annotation
at the source absolves every caller.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph, Key
from repro.lint.scopes import (
    FunctionInfo,
    ModuleInfo,
    attr_of_call,
    call_name,
    iter_scope,
)

# ---------------------------------------------------------------------------
# Resource kinds shared with the escape pass
# ---------------------------------------------------------------------------
LOCK = "lock"
TEMP = "temp-file"

ACQUIRE_ATTRS: Dict[str, FrozenSet[str]] = {
    LOCK: frozenset({"acquire", "request"}),
    TEMP: frozenset({"create_temp_file"}),
}
RELEASE_ATTRS: Dict[str, FrozenSet[str]] = {
    LOCK: frozenset({"release", "release_if_held", "release_all"}),
    TEMP: frozenset({"drop_temp_file", "drop_temp", "track_temp"}),
}

_IO_CALLS = frozenset({
    "open", "os.remove", "os.unlink", "os.makedirs", "os.mkdir",
    "os.rmdir", "os.rename", "os.replace", "os.symlink", "os.chmod",
    "shutil.rmtree", "shutil.copy", "shutil.copyfile", "shutil.move",
    "shutil.copytree", "tempfile.mkstemp", "tempfile.mkdtemp",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryDirectory",
})

#: Container-transfer methods: ``C.append(x)`` moves ownership of x
#: into C for the escape pass's transfer analysis.
_TRANSFER_METHODS = frozenset({
    "append", "add", "insert", "setdefault", "update", "track_temp",
})


@dataclass(frozen=True)
class Origin:
    """One concrete host-I/O site (survives propagation verbatim)."""

    path: str
    line: int
    symbol: str
    detail: str


@dataclass
class EffectSummary:
    """Inferred effects of one function, local + transitive."""

    key: Key
    #: Host-I/O sites (transitively reachable).
    origins: Set[Origin] = field(default_factory=set)
    #: Resource kinds this function transfers to its caller.
    transfers: Set[str] = field(default_factory=set)
    #: Resource kinds this function releases (directly or via helpers).
    releases: Set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# Small AST helpers shared with rules_ipr
# ---------------------------------------------------------------------------
def acquire_kind_of(call: ast.Call, func_name: str) -> Optional[str]:
    """The resource kind *call* acquires, if any (primitive frontier).

    Functions that *are* the primitive (``acquire`` and
    ``create_temp_file`` implementations) are exempt.
    """
    attr = attr_of_call(call)
    if attr == func_name:
        return None
    for kind, attrs in ACQUIRE_ATTRS.items():
        if attr in attrs:
            return kind
    return None


def release_kind_of(call: ast.Call) -> Optional[str]:
    attr = attr_of_call(call)
    for kind, attrs in RELEASE_ATTRS.items():
        if attr in attrs:
            return kind
    return None


# ---------------------------------------------------------------------------
# Local extraction
# ---------------------------------------------------------------------------
def _local_origins(module: ModuleInfo, info: FunctionInfo) -> Set[Origin]:
    """Host-I/O sites in one function's own scope."""
    out: Set[Origin] = set()
    for node in iter_scope(info.node):
        if not isinstance(node, ast.Call):
            continue
        name = module.resolve(call_name(node.func))
        if name in _IO_CALLS and not module.suppressed(node.lineno, "IPR203"):
            out.add(
                Origin(module.rel, node.lineno, info.qualname,
                       f"calls {name}()")
            )
    return out


def store_root(target: ast.AST) -> Optional[str]:
    """The base name of a store target (``X`` of ``X[k].y = v``)."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


# ---------------------------------------------------------------------------
# Transfer analysis (feeds the escape pass)
# ---------------------------------------------------------------------------
def transferred_names(info: FunctionInfo) -> Set[str]:
    """Local names whose value escapes to the caller: returned or
    yielded directly, stored into a parameter/``self`` attribute or
    container, or appended into a local container that itself escapes.

    One fixpoint over the function body; used both to compute a
    function's ``transfers`` effect and to exempt transferred resources
    from its own escape findings (ownership moved, the caller is
    charged at the call site instead).
    """
    args = info.node.args
    params = {
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
    }
    escaped: Set[str] = set(params) | {"self", "cls"}
    #: (container, element) candidate moves discovered in one sweep.
    moves: List[Tuple[str, str]] = []
    direct: Set[str] = set()

    for node in iter_scope(info.node):
        if isinstance(node, ast.Return) and node.value is not None:
            for leaf in _name_leaves(node.value):
                direct.add(leaf)
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                for leaf in _name_leaves(node.value):
                    direct.add(leaf)
        elif isinstance(node, ast.Call):
            attr = attr_of_call(node)
            base = call_name(node.func)
            if attr in _TRANSFER_METHODS and base is not None:
                root = base.split(".")[0]
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        moves.append((root, arg.id))
        elif isinstance(node, ast.Assign):
            value_names = (
                [node.value.id] if isinstance(node.value, ast.Name) else []
            )
            for target in node.targets:
                root = store_root(target)
                if root is None or isinstance(target, ast.Name):
                    continue
                for vname in value_names:
                    moves.append((root, vname))

    result = set(direct)
    changed = True
    while changed:
        changed = False
        for container, element in moves:
            if (
                (container in escaped or container in result)
                and element not in result
            ):
                result.add(element)
                changed = True
    return result


def _name_leaves(expr: ast.AST) -> List[str]:
    """Plain names returned/yielded as-is or inside tuples/lists."""
    if isinstance(expr, ast.Name):
        return [expr.id]
    if isinstance(expr, (ast.Tuple, ast.List)):
        out: List[str] = []
        for elt in expr.elts:
            out.extend(_name_leaves(elt))
        return out
    return []


def binding_name(module: ModuleInfo, call: ast.Call) -> Optional[str]:
    """The local name an acquire call's result is bound to, unwrapping
    ``x = yield ...`` / ``x = yield from ...`` / ``x = wrap(...)``."""
    stmt = module.statement_of(call)
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    return None


# ---------------------------------------------------------------------------
# The fixpoint
# ---------------------------------------------------------------------------
def infer_effects(graph: CallGraph) -> Dict[Key, EffectSummary]:
    """Local extraction + worklist propagation to a fixpoint."""
    summaries: Dict[Key, EffectSummary] = {}

    for key, (module, info) in graph.functions.items():
        summary = EffectSummary(key=key)
        summary.origins = _local_origins(module, info)
        escaped = transferred_names(info)
        for node in iter_scope(info.node):
            if not isinstance(node, ast.Call):
                continue
            kind = acquire_kind_of(node, info.name)
            if kind is not None:
                bound = binding_name(module, node)
                if _inside_release_call(module, node):
                    # track_temp(create_temp_file(...)): born released --
                    # custody lands with the tracking context's teardown
                    # sweep, so neither this function nor its caller
                    # owes a release.
                    pass
                elif (bound is not None and bound in escaped) or (
                    _is_returned_expression(module, node)
                ):
                    summary.transfers.add(kind)
            rkind = release_kind_of(node)
            if rkind is not None:
                summary.releases.add(rkind)
        summaries[key] = summary

    # Worklist propagation.  Origins flow over precise + fuzzy edges;
    # releases over precise edges only.
    # `transfers` is deliberately NOT transitive: a caller that receives
    # a resource and passes it on shows up through its own analysis.
    callers_precise: Dict[Key, Set[Key]] = {k: set() for k in summaries}
    callers_any: Dict[Key, Set[Key]] = {k: set() for k in summaries}
    for key in summaries:
        for callee in graph.callees(key, fuzzy=False):
            if callee in summaries:
                callers_precise[callee].add(key)
        for callee in graph.callees(key, fuzzy=True):
            if callee in summaries:
                callers_any[callee].add(key)

    work: List[Key] = list(summaries)
    in_work = set(work)
    while work:
        key = work.pop()
        in_work.discard(key)
        summary = summaries[key]
        for caller_key in callers_any[key]:
            caller = summaries[caller_key]
            before = (len(caller.origins), len(caller.releases))
            caller.origins |= summary.origins
            if caller_key in callers_precise[key]:
                caller.releases |= summary.releases
            grew = (len(caller.origins), len(caller.releases)) != before
            if grew and caller_key not in in_work:
                work.append(caller_key)
                in_work.add(caller_key)
    return summaries


def _is_returned_expression(module: ModuleInfo, call: ast.Call) -> bool:
    """``return ACQ(...)`` / ``return wrap(ACQ(...))`` -- ownership
    moves to the caller without ever being named."""
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, ast.Return):
            return True
        if isinstance(ancestor, ast.stmt):
            return False
    return False


def _inside_release_call(module: ModuleInfo, call: ast.Call) -> bool:
    """Whether *call* sits in the argument list of a release-family
    call (``ctx.track_temp(ctx.sm.create_temp_file(...))``)."""
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, ast.Call) and ancestor is not call:
            if release_kind_of(ancestor) is not None:
                return True
        if isinstance(ancestor, ast.stmt):
            return False
    return False
