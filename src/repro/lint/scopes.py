"""Parsed-module model: AST, parents, imports, functions, suppressions.

Every rule family works from a :class:`ModuleInfo` built once per file:
the parse tree plus the cheap symbol-table facts the rules need --

* a parent map (rules walk *up* from an interesting node to its
  statement, enclosing ``try``, or enclosing function);
* the import alias table, so ``from os import remove as rm`` still
  resolves ``rm()`` to ``os.remove`` (the rules match on fully resolved
  dotted names);
* every function with its qualified name and enclosing class;
* the per-line ``# simlint: disable=RULE`` suppressions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_*,\s]+)")


@dataclass
class FunctionInfo:
    """One ``def`` in the module, with the facts the rules key on."""

    node: ast.AST
    name: str
    qualname: str
    lineno: int
    #: Name of the enclosing class, if the def is a method.
    class_name: Optional[str] = None


class ModuleInfo:
    """One parsed source file plus its symbol-table summary."""

    def __init__(self, path: str, rel: str, source: str):
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.suppressions = self._parse_suppressions()
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.imports = self._collect_imports()
        self.functions = self._collect_functions()

    # -- suppressions ---------------------------------------------------
    def _parse_suppressions(self) -> Dict[int, Set[str]]:
        out: Dict[int, Set[str]] = {}
        for i, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                rules = {
                    r.strip().upper()
                    for r in match.group(1).split(",")
                    if r.strip()
                }
                out[i] = rules
        return out

    def suppressed(self, line: int, rule: str) -> bool:
        """Whether *rule* is disabled on *line* (or on its statement's
        first line, for findings inside multi-line statements)."""
        rules = self.suppressions.get(line)
        return rules is not None and (rule in rules or "*" in rules)

    # -- imports --------------------------------------------------------
    def _collect_imports(self) -> Dict[str, str]:
        table: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    table[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    table[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return table

    def resolve(self, dotted: Optional[str]) -> Optional[str]:
        """Expand the first segment of a dotted name via the import
        table (``rm`` -> ``os.remove``, ``sh.rmtree`` ->
        ``shutil.rmtree``)."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        expansion = self.imports.get(head)
        if expansion is None:
            return dotted
        return f"{expansion}.{rest}" if rest else expansion

    # -- functions ------------------------------------------------------
    def _collect_functions(self) -> List[FunctionInfo]:
        out: List[FunctionInfo] = []

        def visit(node: ast.AST, prefix: str, cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qual = f"{prefix}{child.name}"
                    out.append(
                        FunctionInfo(
                            node=child,
                            name=child.name,
                            qualname=qual,
                            lineno=child.lineno,
                            class_name=cls,
                        )
                    )
                    visit(child, f"{qual}.<locals>.", cls)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child.name)
                else:
                    visit(child, prefix, cls)

        visit(self.tree, "", None)
        return out

    def enclosing_function(self, node: ast.AST) -> Optional[FunctionInfo]:
        """The innermost function a node belongs to, if any."""
        cursor = self.parents.get(node)
        while cursor is not None:
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for info in self.functions:
                    if info.node is cursor:
                        return info
            cursor = self.parents.get(cursor)
        return None

    # -- generic tree helpers -------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cursor = self.parents.get(node)
        while cursor is not None:
            yield cursor
            cursor = self.parents.get(cursor)

    def statement_of(self, node: ast.AST) -> ast.stmt:
        """The nearest enclosing (or self) statement node."""
        cursor: ast.AST = node
        while not isinstance(cursor, ast.stmt):
            cursor = self.parents[cursor]
        return cursor

    def snippet(self, lineno: int) -> str:
        """The stripped source text of one line (baseline keys)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def iter_scope(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's own scope, skipping nested function bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def call_name(func: ast.AST) -> Optional[str]:
    """The dotted name of a call target (``sm.locks.acquire``), or None
    when any link in the chain is not a plain name/attribute."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        base = call_name(func.value)
        return f"{base}.{func.attr}" if base is not None else None
    return None


def attr_of_call(call: ast.Call) -> Optional[str]:
    """The final attribute name of a method call (``acquire``), if any."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None
