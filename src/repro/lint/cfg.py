"""Per-function control-flow graphs with exception edges.

The interprocedural passes (:mod:`repro.lint.rules_ipr`) need to answer
one question precisely: *from this acquire, can control reach a function
exit -- normal or exceptional -- without passing a release?*  That is a
reachability query over a CFG whose edges include the ways a sim process
actually unwinds.

The exception model is deliberately the simulator's, not CPython's:
interrupts (query abort, injected crash, deadline) land at **yield
points**, and typed faults propagate from explicit ``raise``.  So a
statement grows an exception edge when it contains ``yield`` /
``yield from`` / ``await``, or is a ``raise`` or ``assert``.  Plain host-level statements between an acquire and its ``try``
-- ``packet.phase = "write"`` -- correctly do not unwind, which is what
keeps the tree's idiomatic acquire-then-try pattern clean.

``finally`` bodies are *duplicated* per continuation (normal fall
through, exception propagation, each routed ``return``/``break``/
``continue``), so a release inside a ``finally`` kills the resource on
every path through it without inventing false normal-to-exceptional
crossovers.  A ``return`` inside a ``finally`` overrides the pending
action, exactly as in CPython.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

#: Virtual node kinds (no statement attached).
ENTRY = "entry"
NORMAL_EXIT = "normal-exit"
EXCEPT_EXIT = "except-exit"
STMT = "stmt"


@dataclass
class Node:
    """One CFG node: a statement occurrence or a virtual entry/exit.

    ``finally`` duplication means one ``ast.stmt`` may be attached to
    several nodes; analyses classify nodes by ``stmt``, not identity.
    """

    id: int
    kind: str
    stmt: Optional[ast.stmt] = None
    succ: List[int] = field(default_factory=list)
    #: Successors taken only when the statement raises/unwinds.
    exc_succ: List[int] = field(default_factory=list)


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        self.entry = self._new(ENTRY)
        self.normal_exit = self._new(NORMAL_EXIT)
        self.except_exit = self._new(EXCEPT_EXIT)

    def _new(self, kind: str, stmt: Optional[ast.stmt] = None) -> int:
        node = Node(id=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node.id

    def edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succ:
            self.nodes[src].succ.append(dst)

    def exc_edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].exc_succ:
            self.nodes[src].exc_succ.append(dst)

    # -- queries ---------------------------------------------------------
    def successors(self, node_id: int) -> List[int]:
        node = self.nodes[node_id]
        return node.succ + node.exc_succ

    def nodes_for(self, stmt: ast.stmt) -> List[Node]:
        """Every node occurrence of *stmt* (finally bodies duplicate)."""
        return [n for n in self.nodes if n.stmt is stmt]

    def reachable_exits(
        self,
        start_ids: List[int],
        blocked: Callable[[Node], bool],
    ) -> Set[str]:
        """Which exit kinds are reachable from *start_ids* along paths
        on which no node satisfies *blocked* (the kill predicate).

        A start node that is itself blocked still blocks (the path is
        killed before it begins).
        """
        exits: Set[str] = set()
        seen: Set[int] = set()
        stack = [s for s in start_ids if not blocked(self.nodes[s])]
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            node = self.nodes[node_id]
            if node.kind in (NORMAL_EXIT, EXCEPT_EXIT):
                exits.add(node.kind)
                continue
            for succ in self.successors(node_id):
                if not blocked(self.nodes[succ]):
                    stack.append(succ)
        return exits


# ---------------------------------------------------------------------------
# Exception sources
# ---------------------------------------------------------------------------
def _contains_unwind_point(stmt: ast.stmt) -> bool:
    """Whether *stmt* can unwind: a ``raise``, an ``assert``, or a yield
    point (where interrupts land) among its own expressions."""
    return isinstance(stmt, (ast.Raise, ast.Assert)) or (
        _contains_unwind_point_expr(stmt)
    )


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------
@dataclass
class _Frame:
    """Loop / finally routing context during construction."""

    #: Where an exception inside the current region unwinds to; a thunk
    #: so ``finally`` duplication can materialise the target lazily.
    exc_target: Callable[[], int]
    #: Finally bodies (innermost first) a ``return`` must run through.
    return_finals: Tuple[ast.Try, ...] = ()
    break_target: Optional[Callable[[], int]] = None
    continue_target: Optional[Callable[[], int]] = None
    #: Finally bodies a break/continue must run through before its jump
    #: (those between the statement and its loop).
    loop_finals: Tuple[ast.Try, ...] = ()


class _Builder:
    def __init__(self, func: ast.AST) -> None:
        self.cfg = CFG()
        self.func = func

    def build(self) -> CFG:
        frame = _Frame(exc_target=lambda: self.cfg.except_exit)
        ends = self._block(
            getattr(self.func, "body", []), [self.cfg.entry], frame
        )
        for end in ends:
            self.cfg.edge(end, self.cfg.normal_exit)
        return self.cfg

    # -- helpers ---------------------------------------------------------
    def _link(self, preds: List[int], node_id: int) -> None:
        for pred in preds:
            self.cfg.edge(pred, node_id)

    def _through_finals(
        self,
        finals: Tuple[ast.Try, ...],
        preds: List[int],
        frame_for: Callable[[ast.Try], _Frame],
    ) -> List[int]:
        """Route *preds* through duplicated copies of each pending
        ``finally`` body, innermost first; returns the final exits."""
        current = preds
        for try_stmt in finals:
            current = self._block(
                try_stmt.finalbody, current, frame_for(try_stmt)
            )
            if not current:  # finally itself returned/raised on all paths
                return []
        return current

    def _finals_frame(self, outer: _Frame) -> _Frame:
        """Statements inside a duplicated ``finally`` body unwind to the
        *outer* context, and their own return/break/continue overrides
        the pending action (no further finals pending for them)."""
        return _Frame(
            exc_target=outer.exc_target,
            return_finals=outer.return_finals,
            break_target=outer.break_target,
            continue_target=outer.continue_target,
            loop_finals=outer.loop_finals,
        )

    # -- statement dispatch ---------------------------------------------
    def _block(
        self, stmts: List[ast.stmt], preds: List[int], frame: _Frame
    ) -> List[int]:
        current = preds
        for stmt in stmts:
            if not current:
                break  # unreachable after return/raise/break
            current = self._stmt(stmt, current, frame)
        return current

    def _stmt(
        self, stmt: ast.stmt, preds: List[int], frame: _Frame
    ) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds, frame)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, preds, frame)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds, frame)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds, frame)
        if isinstance(stmt, ast.Return):
            return self._return(stmt, preds, frame)
        if isinstance(stmt, ast.Raise):
            node = self.cfg._new(STMT, stmt)
            self._link(preds, node)
            self.cfg.exc_edge(node, frame.exc_target())
            return []
        if isinstance(stmt, ast.Break):
            node = self.cfg._new(STMT, stmt)
            self._link(preds, node)
            outs = self._through_finals(
                frame.loop_finals, [node],
                lambda t: self._finals_frame(frame),
            )
            if frame.break_target is not None:
                target = frame.break_target()
                for out in outs:
                    self.cfg.edge(out, target)
            return []
        if isinstance(stmt, ast.Continue):
            node = self.cfg._new(STMT, stmt)
            self._link(preds, node)
            outs = self._through_finals(
                frame.loop_finals, [node],
                lambda t: self._finals_frame(frame),
            )
            if frame.continue_target is not None:
                target = frame.continue_target()
                for out in outs:
                    self.cfg.edge(out, target)
            return []
        # Plain statement (expr, assign, yield-bearing expr...).
        node = self.cfg._new(STMT, stmt)
        self._link(preds, node)
        if _contains_unwind_point(stmt):
            self.cfg.exc_edge(node, frame.exc_target())
        if isinstance(stmt, ast.Assert):
            return [node]
        return [node]

    def _return(
        self, stmt: ast.Return, preds: List[int], frame: _Frame
    ) -> List[int]:
        node = self.cfg._new(STMT, stmt)
        self._link(preds, node)
        if _contains_unwind_point(stmt):
            self.cfg.exc_edge(node, frame.exc_target())
        outs = self._through_finals(
            frame.return_finals, [node],
            lambda t: self._finals_frame(frame),
        )
        for out in outs:
            self.cfg.edge(out, self.cfg.normal_exit)
        return []

    def _if(
        self, stmt: ast.If, preds: List[int], frame: _Frame
    ) -> List[int]:
        node = self.cfg._new(STMT, stmt)
        self._link(preds, node)
        if _contains_unwind_point_expr(stmt.test):
            self.cfg.exc_edge(node, frame.exc_target())
        body_ends = self._block(stmt.body, [node], frame)
        else_ends = self._block(stmt.orelse, [node], frame) if stmt.orelse \
            else [node]
        return body_ends + else_ends

    def _loop(self, stmt, preds: List[int], frame: _Frame) -> List[int]:
        head = self.cfg._new(STMT, stmt)
        self._link(preds, head)
        # `for x in <iter>` evaluates the iterator; a yielding iter
        # expression unwinds from the head.
        test_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        if _contains_unwind_point_expr(test_expr):
            self.cfg.exc_edge(head, frame.exc_target())
        after: List[int] = [head]  # loop may run zero times

        join: List[Optional[int]] = [None]

        def break_target() -> int:
            if join[0] is None:
                join[0] = self.cfg._new(STMT, stmt)  # loop-exit join
            return join[0]

        body_frame = _Frame(
            exc_target=frame.exc_target,
            return_finals=frame.return_finals,
            break_target=break_target,
            continue_target=lambda: head,
            loop_finals=(),
        )
        body_ends = self._block(stmt.body, [head], body_frame)
        for end in body_ends:
            self.cfg.edge(end, head)
        # while/for ... else: runs on normal loop exit.
        orelse_ends = self._block(stmt.orelse, [head], frame) \
            if stmt.orelse else after
        outs = list(orelse_ends)
        if join[0] is not None:
            outs.append(join[0])
        if stmt.orelse and head in outs:
            outs.remove(head)
        return outs or [head]

    def _with(self, stmt, preds: List[int], frame: _Frame) -> List[int]:
        node = self.cfg._new(STMT, stmt)
        self._link(preds, node)
        if any(
            _contains_unwind_point_expr(item.context_expr)
            for item in stmt.items
        ):
            self.cfg.exc_edge(node, frame.exc_target())
        # __exit__ runs on both paths but is not user code; body
        # exceptions simply propagate.
        return self._block(stmt.body, [node], frame)

    # -- try/except/else/finally ----------------------------------------
    def _try(
        self, stmt: ast.Try, preds: List[int], frame: _Frame
    ) -> List[int]:
        has_finally = bool(stmt.finalbody)

        # Exception continuation for the *body*: handlers first; the
        # no-handler-matches path runs finally then unwinds outward.
        dispatch: List[Optional[int]] = [None]

        def body_exc_target() -> int:
            if dispatch[0] is None:
                dispatch[0] = self.cfg._new(STMT, stmt)
            return dispatch[0]

        body_frame = _Frame(
            exc_target=body_exc_target if (stmt.handlers or has_finally)
            else frame.exc_target,
            return_finals=((stmt,) + frame.return_finals) if has_finally
            else frame.return_finals,
            break_target=frame.break_target,
            continue_target=frame.continue_target,
            loop_finals=((stmt,) + frame.loop_finals) if has_finally
            else frame.loop_finals,
        )
        body_ends = self._block(stmt.body, preds, body_frame)
        # try ... else: runs only after a clean body.
        if stmt.orelse:
            body_ends = self._block(stmt.orelse, body_ends, body_frame)

        normal_outs: List[int] = []
        exc_outs: List[int] = []  # continuations that must re-unwind

        # Handlers: each gets the dispatch node as predecessor.  Their
        # own exceptions run finally then unwind outward.
        if dispatch[0] is not None or stmt.handlers:
            dsp = body_exc_target()
            handler_frame = _Frame(
                exc_target=self._deferred_outer_exc(stmt, frame)
                if has_finally else frame.exc_target,
                return_finals=((stmt,) + frame.return_finals)
                if has_finally else frame.return_finals,
                break_target=frame.break_target,
                continue_target=frame.continue_target,
                loop_finals=((stmt,) + frame.loop_finals) if has_finally
                else frame.loop_finals,
            )
            matched_any = False
            for handler in stmt.handlers:
                hnode = self.cfg._new(STMT, handler)  # type: ignore[arg-type]
                self.cfg.edge(dsp, hnode)
                normal_outs.extend(
                    self._block(handler.body, [hnode], handler_frame)
                )
                matched_any = True
            if not matched_any or not _has_bare_except(stmt):
                # Unmatched exception: finally (if any), then outward.
                exc_outs.append(dsp)

        if has_finally:
            # Normal completion path.
            done: List[int] = []
            if body_ends:
                done.extend(
                    self._block(
                        stmt.finalbody, body_ends,
                        self._finals_frame(frame),
                    )
                )
            if normal_outs:
                done.extend(
                    self._block(
                        stmt.finalbody, normal_outs,
                        self._finals_frame(frame),
                    )
                )
            # Exception path: duplicated finally, then outward unwind.
            for src in exc_outs:
                fin_ends = self._block(
                    stmt.finalbody, [src], self._finals_frame(frame)
                )
                for end in fin_ends:
                    self.cfg.exc_edge(end, frame.exc_target())
            return done
        # No finally: unmatched exceptions unwind directly.
        for src in exc_outs:
            self.cfg.exc_edge(src, frame.exc_target())
        return body_ends + normal_outs

    def _deferred_outer_exc(
        self, stmt: ast.Try, frame: _Frame
    ) -> Callable[[], int]:
        """Exception target for handler bodies of a try with a finally:
        a fresh finally copy whose ends unwind outward."""
        memo: List[Optional[int]] = [None]

        def target() -> int:
            if memo[0] is None:
                gate = self.cfg._new(STMT, stmt)
                fin_ends = self._block(
                    stmt.finalbody, [gate], self._finals_frame(frame)
                )
                for end in fin_ends:
                    self.cfg.exc_edge(end, frame.exc_target())
                memo[0] = gate
            return memo[0]

        return target


def _has_bare_except(stmt: ast.Try) -> bool:
    return any(
        h.type is None
        or (isinstance(h.type, ast.Name)
            and h.type.id in ("BaseException", "Exception"))
        for h in stmt.handlers
    )


def _contains_unwind_point_expr(expr: Optional[ast.AST]) -> bool:
    """Whether *expr* holds a yield point of the frame it runs in."""
    if expr is None:
        return False
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            return True
        nested = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for name, value in ast.iter_fields(node):
            if nested and name == "body":
                continue  # runs later, in its own frame
            if isinstance(value, ast.AST):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.AST))
    return False


def build_cfg(func: ast.AST) -> CFG:
    """The CFG of one function body: yield points, ``raise`` and
    ``assert`` unwind."""
    return _Builder(func).build()
