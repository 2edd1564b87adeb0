"""Relevant-source digests via the simlint import graph.

The cell cache must invalidate when *engine code* changes but survive
edits to unrelated subsystems (``repro.lint``, ``perf/``, docs).
"Relevant" is defined statically: the transitive closure of module
imports reachable from the cell function's module, computed from the
same parsed-module model simlint uses (:mod:`repro.lint`).  The digest
is a SHA-256 over the sorted ``(module, file-hash)`` pairs of that
closure, so any byte change in any reachable source file changes every
dependent cell's content address.
"""

from __future__ import annotations

import ast
import hashlib
import os
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.core import iter_python_files, load_module


def module_table(src_root: str) -> Dict[str, str]:
    """Map dotted module name -> file path for every module under
    *src_root* (a directory containing top-level packages)."""
    table: Dict[str, str] = {}
    for path in iter_python_files([src_root]):
        rel = os.path.relpath(path, src_root).replace(os.sep, "/")
        if rel.endswith("/__init__.py"):
            dotted = rel[: -len("/__init__.py")].replace("/", ".")
        elif rel == "__init__.py":
            continue
        else:
            dotted = rel[: -len(".py")].replace("/", ".")
        table[dotted] = path
    return table


def _module_package(dotted: str, path: str) -> str:
    """The package a module's relative imports resolve against."""
    if path.endswith("__init__.py"):
        return dotted
    return dotted.rpartition(".")[0]


def _imports_of(dotted: str, path: str, known: Dict[str, str]) -> Set[str]:
    """In-tree modules *dotted* imports, resolved to table entries."""
    module = load_module(path)
    package = _module_package(dotted, path)
    deps: Set[str] = set()

    def add(target: str, names: Iterable[str] = ()) -> None:
        # ``from pkg import name`` may name a submodule or an attribute;
        # include whichever of pkg.name / pkg is a known module.
        for name in names:
            if f"{target}.{name}" in known:
                deps.add(f"{target}.{name}")
        if target in known:
            deps.add(target)

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                if node.level > 1:
                    base = base[: -(node.level - 1)]
                target = ".".join(base)
                if node.module:
                    target = f"{target}.{node.module}" if target else node.module
            else:
                target = node.module or ""
            if target:
                add(target, [a.name for a in node.names])
    return deps


def import_graph(src_root: str) -> Dict[str, Set[str]]:
    """The static import graph over every module under *src_root*.

    Edges point from importer to imported module; importing a module
    also executes its ancestor packages' ``__init__``, so those are
    edges too.
    """
    known = module_table(src_root)
    graph: Dict[str, Set[str]] = {}
    for dotted in sorted(known):
        deps = _imports_of(dotted, known[dotted], known)
        for dep in list(deps):
            parts = dep.split(".")
            for i in range(1, len(parts)):
                ancestor = ".".join(parts[:i])
                if ancestor in known:
                    deps.add(ancestor)
        deps.discard(dotted)
        graph[dotted] = deps
    return graph


def closure(graph: Dict[str, Set[str]], roots: Iterable[str]) -> List[str]:
    """Modules transitively reachable from *roots* (roots included)."""
    seen: Set[str] = set()
    stack = [r for r in roots if r in graph]
    while stack:
        mod = stack.pop()
        if mod in seen:
            continue
        seen.add(mod)
        stack.extend(graph.get(mod, ()))
    return sorted(seen)


#: Lazily loaded ``REPRO_MODTABLE`` contents: abspath -> entry dict.
#: ``None`` means "not loaded yet"; ``{}`` means "no usable table".
_MODTABLE: "Dict[str, Dict[str, object]] | None" = None


def _modtable() -> "Dict[str, Dict[str, object]]":
    """The pre-hashed module table emitted by ``python -m repro.lint
    --emit-module-table`` (shared via the ``REPRO_MODTABLE`` env var),
    or an empty table when absent/unreadable -- the digest then simply
    hashes everything itself."""
    global _MODTABLE
    if _MODTABLE is None:
        _MODTABLE = {}
        path = os.environ.get("REPRO_MODTABLE")
        if path:
            try:
                import json

                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                if isinstance(doc, dict) and doc.get("version") == 1:
                    _MODTABLE = dict(doc.get("files", {}))
            except (OSError, ValueError):
                _MODTABLE = {}
    return _MODTABLE


def _file_hash(path: str) -> str:
    entry = _modtable().get(os.path.abspath(path))
    if entry is not None:
        try:
            st = os.stat(path)
            if (
                entry.get("size") == st.st_size
                and entry.get("mtime_ns") == st.st_mtime_ns
            ):
                return str(entry["sha256"])
        except OSError:
            pass  # fall through to hashing
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest(root_module: str, src_root: str) -> str:
    """Digest of every source file reachable from *root_module*.

    The digest string embeds nothing machine-specific: it is a SHA-256
    over sorted ``module=filehash`` lines, so two checkouts with
    identical sources agree byte-for-byte.
    """
    known = module_table(src_root)
    graph = import_graph(src_root)
    reachable = closure(graph, [root_module])
    if root_module not in known:
        raise KeyError(
            f"module {root_module!r} not found under {src_root!r}"
        )
    lines = [f"{mod}={_file_hash(known[mod])}" for mod in reachable]
    blob = "\n".join(lines).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def digest_report(root_module: str, src_root: str) -> List[Tuple[str, str]]:
    """The (module, file-hash) pairs behind :func:`source_digest` --
    debugging aid for "why did my cache bust?"."""
    known = module_table(src_root)
    reachable = closure(import_graph(src_root), [root_module])
    return [(mod, _file_hash(known[mod])) for mod in reachable]
