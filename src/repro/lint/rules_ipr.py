"""IPR -- interprocedural passes over the whole-program call graph.

Two pass families, both driven from :func:`check_project`:

* **Resource escape** (IPR001 lock, IPR003 temp file): from each
  acquire site, a CFG reachability query asks whether a function exit
  -- normal *or* exceptional -- is reachable without passing a release
  of that resource kind.  Helpers participate through effect
  summaries: a call to a function that *transfers* a freshly acquired
  resource counts as an acquire at the call site, and a call to a
  function that *releases* the kind counts as a release.
* **Cell purity** (IPR203 non-injected host I/O): every ``@cell``
  function must be transitively free of host I/O, or the
  content-addressed cell cache silently serves results that depend on
  a file its key does not cover.  Origins propagate over fuzzy call
  edges too -- purity is a universal claim, so over-approximating the
  callee set errs on the sound side -- and each finding names the
  concrete origin site.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph, Key, func_key
from repro.lint.cfg import build_cfg
from repro.lint.effects import (
    EffectSummary,
    LOCK,
    TEMP,
    store_root,
    acquire_kind_of,
    binding_name,
    infer_effects,
    release_kind_of,
    transferred_names,
)
from repro.lint.findings import Finding, make_finding
from repro.lint.scopes import FunctionInfo, ModuleInfo, call_name, iter_scope

RULES: Dict[str, str] = {
    "IPR001": "Lock/resource acquired on some path escapes a normal or "
              "exceptional exit without a release (interprocedural).",
    "IPR003": "Spill/temp file escapes a normal or exceptional exit "
              "without a drop or ownership transfer (interprocedural).",
    "IPR203": "@cell function transitively performs non-injected host "
              "I/O.",
}

#: Extended ``--explain`` entries (the short RULES text is the summary).
EXPLAIN: Dict[str, str] = {
    "IPR001": """\
A lock or resource request was acquired, and from the acquire site the
control-flow graph (including exception edges at yield points, raise,
and assert) can reach a function exit without passing any
release/release_if_held/release_all of the lock kind -- directly or via
a helper whose effect summary releases locks.

The exception model is the simulator's: interrupts (abort, injected
crash, deadline) land at *yield points*, so plain host statements
between an acquire and its try/finally do not unwind.  Acquires whose
result is returned to the caller, stored into a caller-owned container,
or handed to a release-family call transfer ownership and are charged
at the call site of the receiving function instead.

Fix: cover the acquire with try/finally (release_if_held is idempotent)
or a context manager; or suppress with `# simlint: disable=IPR001` plus
a comment explaining who releases.""",
    "IPR003": """\
A spill/temp file created with create_temp_file can reach a function
exit without drop_temp_file/drop_temp or an ownership transfer
(track_temp into a swept ExecContext, return to caller, store into a
caller-owned container).  Exception paths count: an interrupt landing
at a yield point between creation and the drop leaks the file and its
pages.  Cleanup sweeps (`for f in files: sm.drop_temp_file(f)`) are
recognised as releases of the whole kind.""",
    "IPR203": """\
A cell transitively opens files or touches the real filesystem outside
the injected storage fabric.  Cells must receive all I/O capability via
their spec; host I/O makes the cached value depend on machine state.
Suppress at the origin line when the I/O sink is itself
configuration-injected and cannot affect cell output.""",
}

_ESCAPE_RULE = {LOCK: "IPR001", TEMP: "IPR003"}

_KIND_LABEL = {LOCK: "lock", TEMP: "temp file"}


def check_project(modules: List[ModuleInfo]) -> Iterator[Finding]:
    graph = CallGraph(modules)
    summaries = infer_effects(graph)
    for module in modules:
        for info in module.functions:
            key = func_key(module, info)
            yield from _escape_findings(graph, summaries, module, info, key)
    yield from _impure_cells(graph, summaries)


# ---------------------------------------------------------------------------
# IPR001 / IPR003: resource escape
# ---------------------------------------------------------------------------
def _escape_findings(
    graph: CallGraph,
    summaries: Dict[Key, EffectSummary],
    module: ModuleInfo,
    info: FunctionInfo,
    key: Key,
) -> Iterator[Finding]:
    acquires: List[Tuple[ast.Call, str, Optional[Key]]] = []
    for node in iter_scope(info.node):
        if isinstance(node, ast.Call):
            kind = acquire_kind_of(node, info.name)
            if kind is not None:
                acquires.append((node, kind, None))
    for site in graph.call_sites(key):
        for tkey in site.precise:
            tsum = summaries.get(tkey)
            if tsum is None:
                continue
            for kind in sorted(tsum.transfers):
                acquires.append((site.call, kind, tkey))
    if not acquires:
        return

    cfg = build_cfg(info.node)
    escaped = transferred_names(info)
    release_stmts = _release_map(graph, summaries, module, info, key)

    for call, kind, via in acquires:
        if _transferred(module, call, escaped):
            continue
        if _in_with_context(module, call):
            continue
        stmt = module.statement_of(call)
        starts: List[int] = []
        for occ in cfg.nodes_for(stmt):
            starts.extend(occ.succ)  # exception during acquire: not held

        def blocked(node, _kind=kind):
            return _releases_here(node.stmt, _kind, release_stmts)

        exits = cfg.reachable_exits(starts, blocked)
        if not exits:
            continue
        how = (
            f"acquired via {graph.function(via)[1].qualname}()"
            if via is not None else "acquired here"
        )
        paths = " and ".join(sorted(e.replace("-exit", "") for e in exits))
        yield make_finding(
            module, call, _ESCAPE_RULE[kind],
            f"{_KIND_LABEL[kind]} {how} can reach a {paths} exit of "
            f"{info.qualname!r} without a release -- cover it with "
            f"try/finally or transfer ownership",
        )


def _release_map(
    graph: CallGraph,
    summaries: Dict[Key, EffectSummary],
    module: ModuleInfo,
    info: FunctionInfo,
    key: Key,
) -> Dict[ast.stmt, Set[str]]:
    """Innermost statement -> resource kinds it releases (directly or
    through a precisely resolved helper)."""
    out: Dict[ast.stmt, Set[str]] = {}

    def add(call: ast.Call, kinds: Set[str]) -> None:
        if kinds:
            out.setdefault(module.statement_of(call), set()).update(kinds)

    for node in iter_scope(info.node):
        if isinstance(node, ast.Call):
            kind = release_kind_of(node)
            if kind is not None:
                add(node, {kind})
    for site in graph.call_sites(key):
        kinds: Set[str] = set()
        for tkey in site.precise:
            tsum = summaries.get(tkey)
            if tsum is not None:
                kinds |= tsum.releases
        add(site.call, kinds)
    return out


def _releases_here(
    stmt: Optional[ast.AST],
    kind: str,
    release_stmts: Dict[ast.stmt, Set[str]],
) -> bool:
    """The kill predicate: does this CFG node's statement release
    *kind*?  Compound statements are judged by their inner nodes --
    except loops, where a release anywhere in the body marks the loop a
    cleanup sweep (``for f in files: drop(f)``) and kills at the head,
    covering the statically-possible-but-dynamically-empty iteration.
    """
    if stmt is None:
        return False
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
        return any(
            kind in kinds and _is_under(inner, stmt)
            for inner, kinds in release_stmts.items()
        )
    if isinstance(
        stmt, (ast.If, ast.Try, ast.With, ast.AsyncWith, ast.excepthandler)
    ):
        return False
    return kind in release_stmts.get(stmt, set())


def _is_under(stmt: ast.stmt, root: ast.stmt) -> bool:
    return any(node is stmt for node in ast.walk(root))


def _transferred(
    module: ModuleInfo, call: ast.Call, escaped: Set[str]
) -> bool:
    """Ownership of the acquire's result moves out of this function."""
    bound = binding_name(module, call)
    if bound is not None and bound in escaped:
        return True
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, ast.Return):
            return True
        if isinstance(ancestor, ast.Call) and ancestor is not call:
            if release_kind_of(ancestor) is not None:
                return True  # e.g. ctx.track_temp(create_temp_file(...))
        if isinstance(ancestor, ast.stmt):
            break
    stmt = module.statement_of(call)
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            root = store_root(target)
            if not isinstance(target, ast.Name) and root in escaped:
                return True  # self.f = acquire(...) / out[k] = acquire(...)
    return False


def _in_with_context(module: ModuleInfo, call: ast.Call) -> bool:
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if any(n is call for n in ast.walk(item.context_expr)):
                    return True
    return False


# ---------------------------------------------------------------------------
# IPR203: cell purity
# ---------------------------------------------------------------------------
def is_cell(info: FunctionInfo) -> bool:
    for dec in getattr(info.node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = call_name(target)
        if name is not None and name.split(".")[-1] == "cell":
            return True
    return False


def _impure_cells(
    graph: CallGraph, summaries: Dict[Key, EffectSummary]
) -> Iterator[Finding]:
    for key in sorted(graph.functions):
        module, info = graph.functions[key]
        if not is_cell(info) or not summaries[key].origins:
            continue
        origins = sorted(
            summaries[key].origins, key=lambda o: (o.path, o.line)
        )
        shown = ", ".join(
            f"{o.path}:{o.line} {o.detail} (in {o.symbol})"
            for o in origins[:2]
        )
        if len(origins) > 2:
            shown += f", +{len(origins) - 2} more"
        yield make_finding(
            module, info.node, "IPR203",
            f"@cell {info.qualname!r} is impure: {shown}",
        )
