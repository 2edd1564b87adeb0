"""TRC -- required trace fields at emit call sites.

The :mod:`repro.obs.schema` registry declares every event the engine
may emit and the fields each must carry.  The tracer rejects an
unregistered *name* at runtime, which tier-1's traced runs reach; it
does not check *fields*, and an event emitted only on a rare path (a
scanner restart, say) can lose one without any test noticing:

* **TRC003** missing required field: a literal-name emit whose keyword
  arguments lack a field the registry requires (calls forwarding
  ``**fields`` are skipped -- they cannot be checked statically).

Recognized emitters: any ``<...>.tracer.<method>(...)`` chain, the
``self.event``/``self._packet`` helpers inside ``*Tracer`` classes, and
the registered wrapper methods (``_record`` forwards to the ``fault``
family; ``_packet`` injects the packet identity fields).  The generic
dispatcher bodies themselves (``Tracer.osp`` building ``f"osp.{etype}"``
and friends) are exempt: their *call sites* are what get checked.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding, make_finding
from repro.lint.scopes import ModuleInfo
from repro.obs import schema

RULES: Dict[str, str] = {
    "TRC003": "Trace emit lacks a field the registry requires for "
              "this event.",
}

#: Family dispatch methods on the tracer: ``osp(etype)`` emits
#: ``osp.<etype>``; the empty prefix means the literal is the full name.
_FAMILY_METHODS: Dict[str, str] = {
    "event": "",
    "osp": "osp",
    "pool": "pool",
    "lock": "lock",
    "fault": "fault",
    "lineage": "lineage",
    "fold": "fold",
    "proc": "proc",
}

#: Families whose dispatcher signature carries the required fields as
#: fixed positional parameters -- nothing left to check per call site.
_POSITIONAL_FAMILIES = frozenset({"pool", "lock", "proc"})

#: Emit wrappers: method name -> (family prefix, fields the wrapper
#: injects itself).  Their call sites are checked; their bodies are not.
_WRAPPERS: Dict[str, Tuple[str, FrozenSet[str]]] = {
    "_packet": ("", frozenset({"packet", "query", "engine", "op"})),
    "_record": ("fault", frozenset()),
}


def check(module: ModuleInfo) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        method = node.func.attr
        emit: Optional[Tuple[str, FrozenSet[str], bool]] = None
        if method in _FAMILY_METHODS and _is_tracer_emit(
            module, node, method
        ):
            prefix = _FAMILY_METHODS[method]
            emit = (
                prefix,
                frozenset(),
                prefix in _POSITIONAL_FAMILIES,
            )
        elif method in _WRAPPERS and isinstance(
            node.func.value, ast.Name
        ) and node.func.value.id == "self":
            prefix, injected = _WRAPPERS[method]
            emit = (prefix, injected, False)
        if emit is None:
            continue
        if _in_exempt_body(module, node):
            continue
        prefix, injected, fields_positional = emit
        yield from _check_emit(
            module, node, prefix, injected, fields_positional
        )


# ---------------------------------------------------------------------------
# Emitter recognition
# ---------------------------------------------------------------------------
def _is_tracer_emit(
    module: ModuleInfo, call: ast.Call, method: str
) -> bool:
    base = call.func.value  # type: ignore[union-attr]
    if isinstance(base, ast.Name) and base.id == "tracer":
        return True
    if isinstance(base, ast.Attribute) and base.attr == "tracer":
        return True
    # self.event(...) inside a *Tracer class is the raw emit itself.
    if (
        method == "event"
        and isinstance(base, ast.Name)
        and base.id == "self"
    ):
        func = module.enclosing_function(call)
        return bool(
            func and func.class_name and func.class_name.endswith("Tracer")
        )
    return False


def _in_exempt_body(module: ModuleInfo, node: ast.AST) -> bool:
    """Dispatcher and wrapper bodies forward non-literal names by
    design; only their call sites are checked."""
    func = module.enclosing_function(node)
    if func is None:
        return False
    if func.name in _WRAPPERS:
        return True
    return (
        func.name in _FAMILY_METHODS
        and func.class_name is not None
        and func.class_name.endswith("Tracer")
    )


# ---------------------------------------------------------------------------
# Field validation
# ---------------------------------------------------------------------------
def _check_emit(
    module: ModuleInfo,
    call: ast.Call,
    prefix: str,
    injected: FrozenSet[str],
    fields_positional: bool,
) -> Iterator[Finding]:
    if not call.args or fields_positional:
        return
    names = _literal_names(call.args[0], prefix)
    if names is None or any(kw.arg is None for kw in call.keywords):
        return  # dynamic name or **fields forwarding: not checkable
    present: Set[str] = {kw.arg for kw in call.keywords if kw.arg}
    for name in names:
        if not schema.is_registered(name):
            continue  # the tracer rejects the name itself at runtime
        # _packet-style wrappers pass the subject positionally.
        missing = [
            f
            for f in schema.required_fields(name)
            if f not in present and f not in injected
        ]
        if missing:
            yield make_finding(
                module, call, "TRC003",
                f"emit of {name!r} lacks required field(s) "
                f"{', '.join(missing)} (see repro.obs.schema)",
            )


def _literal_names(
    node: ast.AST, prefix: str
) -> Optional[List[str]]:
    """All concrete event names a literal name expression can produce,
    or None when the expression is not statically literal.

    Handles plain string constants and conditional expressions over
    them (``"retry" if ok else "giveup"``).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [f"{prefix}.{node.value}" if prefix else node.value]
    if isinstance(node, ast.IfExp):
        body = _literal_names(node.body, prefix)
        orelse = _literal_names(node.orelse, prefix)
        if body is not None and orelse is not None:
            return body + orelse
    return None
