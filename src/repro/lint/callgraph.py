"""Project-wide call graph over the parsed-module symbol tables.

Static call resolution in Python is necessarily partial; the graph keeps
the honest distinction the passes rely on:

* **precise** edges -- resolutions that identify the target function:
  plain-name calls to locals/nested defs/module functions/imported
  functions, ``self.x()`` / ``cls.x()`` through the textual class
  hierarchy, ``Class()`` to ``Class.__init__``, and ``mod.func()``
  through the import table.  The resource-escape pass follows only
  these (a wrong edge there would fabricate findings).
* **fuzzy** edges -- ``obj.method()`` on an untyped receiver, resolved
  to *every* in-tree function of that name (capped; very common names
  are dropped).  The cell-purity pass follows these too: purity is a
  universal claim, so over-approximating the callee set errs on the
  sound side.

Known unsoundness, by construction: dynamic dispatch through
``getattr``/``globals()``, callables passed as values, monkey-patching,
and calls into site-packages are invisible.  DESIGN section 14 records
these limits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.scopes import FunctionInfo, ModuleInfo, call_name

#: An attribute call resolving to more in-tree defs than this is treated
#: as unresolvable noise rather than a 100-target fan-out.
FUZZY_CAP = 24

#: Attribute names that overwhelmingly bind to builtin / stdlib objects
#: (dict, list, set, str, file, Path).  A fuzzy edge from ``d.get(k)``
#: to every in-tree ``get`` would wire the whole tree together through
#: collection-protocol noise, so these never produce fuzzy edges (an
#: in-tree target is still reached when the receiver resolves
#: precisely: plain name, ``self.``, or an imported module).
FUZZY_STOPLIST = frozenset({
    "add", "append", "clear", "close", "copy", "count", "discard",
    "encode", "decode", "extend", "flush", "format", "get", "index",
    "insert", "items", "join", "keys", "open", "pop", "popitem", "put",
    "read", "readline", "readlines", "remove", "resolve", "reverse",
    "run", "seek", "setdefault", "sort", "split", "strip", "update",
    "values", "write", "writelines",
})

#: Function key: "<module rel path>::<qualname>".
Key = str


def func_key(module: ModuleInfo, info: FunctionInfo) -> Key:
    return f"{module.rel}::{info.qualname}"


def dotted_of(rel: str) -> str:
    """Dotted module path of a source file's repo-relative path."""
    path = rel.replace("\\", "/")
    for prefix in ("src/", "./"):
        if path.startswith(prefix):
            path = path[len(prefix):]
    if path.endswith("/__init__.py"):
        path = path[: -len("/__init__.py")]
    elif path.endswith(".py"):
        path = path[: -len(".py")]
    return path.replace("/", ".")


@dataclass
class ClassInfo:
    name: str
    module: ModuleInfo
    #: Base-class names resolved through the import table.
    bases: List[str]
    #: method name -> FunctionInfo (own methods only).
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved call: the AST node plus its targets."""

    call: ast.Call
    precise: Tuple[Key, ...]
    fuzzy: Tuple[Key, ...]


class CallGraph:
    """The project call graph; build once, query per pass."""

    def __init__(self, modules: List[ModuleInfo]):
        self.modules = modules
        self.functions: Dict[Key, Tuple[ModuleInfo, FunctionInfo]] = {}
        self.by_simple_name: Dict[str, List[Key]] = {}
        self.module_by_dotted: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, List[ClassInfo]] = {}
        self._call_sites: Dict[Key, List[CallSite]] = {}

        for module in modules:
            self.module_by_dotted[dotted_of(module.rel)] = module
            for info in module.functions:
                key = func_key(module, info)
                self.functions[key] = (module, info)
                self.by_simple_name.setdefault(info.name, []).append(key)
            for cls in self._collect_classes(module):
                self.classes.setdefault(cls.name, []).append(cls)

        for module in modules:
            for info in module.functions:
                key = func_key(module, info)
                self._call_sites[key] = self._resolve_sites(module, info)

    # -- construction ----------------------------------------------------
    def _collect_classes(self, module: ModuleInfo) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases: List[str] = []
            for base in node.bases:
                name = module.resolve(call_name(base))
                if name:
                    bases.append(name.rpartition(".")[2])
            cls = ClassInfo(name=node.name, module=module, bases=bases)
            for info in module.functions:
                if info.class_name == node.name and "." not in (
                    info.qualname.replace(f"{node.name}.", "", 1)
                ):
                    cls.methods.setdefault(info.name, info)
            out.append(cls)
        return out

    def _resolve_sites(
        self, module: ModuleInfo, info: FunctionInfo
    ) -> List[CallSite]:
        from repro.lint.scopes import iter_scope

        sites: List[CallSite] = []
        for node in iter_scope(info.node):
            if isinstance(node, ast.Call):
                precise, fuzzy = self.resolve_call(module, info, node)
                if precise or fuzzy:
                    sites.append(CallSite(node, tuple(precise), tuple(fuzzy)))
        return sites

    # -- resolution ------------------------------------------------------
    def resolve_call(
        self, module: ModuleInfo, info: Optional[FunctionInfo],
        call: ast.Call,
    ) -> Tuple[List[Key], List[Key]]:
        """(precise targets, fuzzy targets) of one call node."""
        func = call.func
        # Plain name: local def chain, module function, import, class.
        if isinstance(func, ast.Name):
            target = self._resolve_plain(module, info, func.id)
            return (([target], []) if target else ([], []))
        if not isinstance(func, ast.Attribute):
            return [], []
        attr = func.attr
        base = call_name(func.value)
        # self.method() / cls.method() via the textual hierarchy.
        if base in ("self", "cls") and info is not None and info.class_name:
            target = self._resolve_method(module, info.class_name, attr)
            if target:
                return [target], []
            return [], self._fuzzy(attr)
        # mod.func() / pkg.mod.func() through the import table.
        if base is not None:
            resolved = module.resolve(f"{base}.{attr}")
            if resolved:
                target = self._resolve_dotted(resolved)
                if target:
                    return [target], []
        return [], self._fuzzy(attr)

    def _resolve_plain(
        self, module: ModuleInfo, info: Optional[FunctionInfo], name: str
    ) -> Optional[Key]:
        # Nested defs visible from the enclosing function, innermost out.
        if info is not None:
            prefix = info.qualname
            while True:
                cand = f"{module.rel}::{prefix}.<locals>.{name}"
                if cand in self.functions:
                    return cand
                if ".<locals>." not in prefix:
                    break
                prefix = prefix.rsplit(".<locals>.", 1)[0]
        # Module-level function.
        cand = f"{module.rel}::{name}"
        if cand in self.functions:
            return cand
        # Class instantiation -> __init__.
        for cls in self.classes.get(name, ()):
            if cls.module is module:
                init = cls.methods.get("__init__")
                if init is not None:
                    return func_key(cls.module, init)
        # Imported function or class.
        resolved = module.resolve(name)
        if resolved and resolved != name:
            return self._resolve_dotted(resolved)
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[Key]:
        """``pkg.mod.func`` / ``pkg.mod.Class`` to an in-tree function."""
        mod_path, _, leaf = dotted.rpartition(".")
        target_mod = self.module_by_dotted.get(mod_path)
        if target_mod is None:
            return None
        cand = f"{target_mod.rel}::{leaf}"
        if cand in self.functions:
            return cand
        for cls in self.classes.get(leaf, ()):
            if cls.module is target_mod:
                init = cls.methods.get("__init__")
                if init is not None:
                    return func_key(cls.module, init)
        return None

    def _resolve_method(
        self, module: ModuleInfo, class_name: str, attr: str
    ) -> Optional[Key]:
        """Method lookup through the textual base-class chain (in-tree
        classes matched by name; name collisions pick the same-module
        definition first)."""
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            cname = queue.pop(0)
            if cname in seen:
                continue
            seen.add(cname)
            candidates = self.classes.get(cname, ())
            ordered = sorted(
                candidates, key=lambda c: 0 if c.module is module else 1
            )
            for cls in ordered:
                info = cls.methods.get(attr)
                if info is not None:
                    return func_key(cls.module, info)
            for cls in ordered:
                queue.extend(cls.bases)
        return None

    def _fuzzy(self, attr: str) -> List[Key]:
        if attr.startswith("__") and attr.endswith("__"):
            return []
        if attr in FUZZY_STOPLIST:
            return []
        keys = self.by_simple_name.get(attr, [])
        if not keys or len(keys) > FUZZY_CAP:
            return []
        return list(keys)

    # -- queries ---------------------------------------------------------
    def call_sites(self, key: Key) -> List[CallSite]:
        return self._call_sites.get(key, [])

    def callees(self, key: Key, fuzzy: bool = False) -> List[Key]:
        out: List[Key] = []
        for site in self.call_sites(key):
            out.extend(site.precise)
            if fuzzy:
                out.extend(site.fuzzy)
        return sorted(dict.fromkeys(out))

    def function(self, key: Key) -> Tuple[ModuleInfo, FunctionInfo]:
        return self.functions[key]
