"""Unit tests for the per-function CFG (:mod:`repro.lint.cfg`).

The fixtures pin the exception model the escape pass depends on: unwind
edges exist only at yield points / raise / assert, ``finally`` bodies
are duplicated per continuation, and a ``return`` inside a ``finally``
overrides the pending unwind -- exactly CPython's semantics restricted
to the simulator's interrupt points.
"""

import ast
import textwrap

from repro.lint.cfg import (
    EXCEPT_EXIT,
    NORMAL_EXIT,
    build_cfg,
)


def cfg_of(source):
    tree = ast.parse(textwrap.dedent(source))
    func = tree.body[-1]
    return func, build_cfg(func)


def stmts_matching(func, needle):
    """Innermost statements whose AST dump mentions *needle*."""
    hits = [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.stmt)
        and needle in ast.dump(node)
        and not any(
            needle in ast.dump(child)
            for child in ast.walk(node)
            if isinstance(child, ast.stmt) and child is not node
        )
    ]
    assert hits, f"no statement matching {needle!r}"
    return hits


def stmt_matching(func, needle):
    hits = stmts_matching(func, needle)
    assert len(hits) == 1, f"ambiguous needle {needle!r}"
    return hits[0]


def exits_from(cfg, func, start_needle, release_needle=None):
    """Exit kinds reachable from the *normal* successors of the
    statement matching *start_needle*, killing paths at any statement
    matching *release_needle* (the escape pass's query shape)."""
    start_stmt = stmts_matching(func, start_needle)[0]
    starts = []
    for occ in cfg.nodes_for(start_stmt):
        starts.extend(occ.succ)
    blockers = (
        set(map(id, stmts_matching(func, release_needle)))
        if release_needle else set()
    )
    return cfg.reachable_exits(
        starts, lambda node: id(node.stmt) in blockers
    )


# ---------------------------------------------------------------------------
# Exception edges exist only at simulator unwind points
# ---------------------------------------------------------------------------
def test_plain_statements_do_not_unwind():
    func, cfg = cfg_of("""\
        def f(sm):
            x = sm.acquire()
            x.label = "held"
        """)
    for stmt_node in cfg.nodes:
        if stmt_node.stmt is not None:
            assert stmt_node.exc_succ == []


def test_yield_points_unwind():
    func, cfg = cfg_of("""\
        def f(sm):
            x = sm.acquire()
            yield x.wait()
        """)
    yield_stmt = stmt_matching(func, "wait")
    (node,) = cfg.nodes_for(yield_stmt)
    assert node.exc_succ == [cfg.except_exit]


def test_raise_and_assert_unwind():
    func, cfg = cfg_of("""\
        def f(flag):
            assert flag
            raise ValueError(flag)
        """)
    for needle in ("Assert", "Raise"):
        stmt = stmt_matching(func, needle)
        (node,) = cfg.nodes_for(stmt)
        assert cfg.except_exit in node.exc_succ


def test_nested_bodies_do_not_unwind_their_definitions():
    """A yield inside a nested generator or lambda belongs to that
    frame: defining it is a plain statement."""
    func, cfg = cfg_of("""\
        def f():
            def gen():
                yield 1
            g = lambda: (yield)
            x = 1
        """)
    for stmt in func.body:
        (node,) = cfg.nodes_for(stmt)
        assert node.exc_succ == []
    gen = func.body[0]
    inner = build_cfg(gen)
    (node,) = inner.nodes_for(gen.body[0])
    assert node.exc_succ == [inner.except_exit]


# ---------------------------------------------------------------------------
# try/finally duplication and kill-predicate reachability
# ---------------------------------------------------------------------------
def test_finally_release_blocks_both_exits():
    func, cfg = cfg_of("""\
        def f(lock):
            yield lock.acquire()
            try:
                yield 1
            finally:
                lock.release()
        """)
    assert exits_from(cfg, func, "acquire", "release") == set()


def test_finally_bodies_are_duplicated():
    func, cfg = cfg_of("""\
        def f(lock):
            yield lock.acquire()
            try:
                yield 1
            finally:
                lock.release()
        """)
    release = stmt_matching(func, "release")
    # One copy on the normal fall-through, one on the unwind path.
    assert len(cfg.nodes_for(release)) >= 2


def test_release_outside_finally_leaks_exception_path():
    func, cfg = cfg_of("""\
        def f(lock):
            yield lock.acquire()
            yield 1
            lock.release()
        """)
    assert exits_from(cfg, func, "acquire", "release") == {EXCEPT_EXIT}


def test_unwind_between_acquire_and_try_leaks():
    func, cfg = cfg_of("""\
        def f(lock, sim):
            yield lock.acquire()
            yield sim.timeout(1)
            try:
                yield 1
            finally:
                lock.release()
        """)
    # The timeout yield can unwind before the try is entered.
    assert exits_from(cfg, func, "acquire", "release") == {EXCEPT_EXIT}


def test_typed_handler_still_unwinds_unmatched_exceptions():
    func, cfg = cfg_of("""\
        def f(lock):
            yield lock.acquire()
            try:
                yield 1
            except ValueError:
                lock.release()
                raise
            lock.release()
        """)
    # A non-ValueError unwind bypasses the handler and both releases.
    assert EXCEPT_EXIT in exits_from(cfg, func, "acquire", "release")


def test_bare_except_with_release_covers_everything():
    func, cfg = cfg_of("""\
        def f(lock):
            yield lock.acquire()
            try:
                yield 1
            except Exception:
                lock.release()
                raise
            lock.release()
        """)
    assert exits_from(cfg, func, "acquire", "release") == set()


def test_return_in_finally_overrides_unwind():
    func, cfg = cfg_of("""\
        def f(lock):
            yield lock.acquire()
            try:
                yield 1
            finally:
                return 0
        """)
    # The pending exception is swallowed by the return: only the normal
    # exit is reachable past the acquire.
    assert exits_from(cfg, func, "acquire") == {NORMAL_EXIT}


def test_return_routes_through_finally():
    func, cfg = cfg_of("""\
        def f(lock, flag):
            yield lock.acquire()
            try:
                if flag:
                    return 1
                yield 1
            finally:
                lock.release()
            return 2
        """)
    assert exits_from(cfg, func, "acquire", "release") == set()


def test_break_routes_through_finally():
    func, cfg = cfg_of("""\
        def f(lock, items):
            yield lock.acquire()
            for item in items:
                try:
                    if item:
                        break
                    yield item
                finally:
                    lock.release()
            yield 1
        """)
    # Leaving the loop via break runs the duplicated finally first, so
    # every path from the break is killed at the release.
    assert exits_from(cfg, func, "Break", "release") == set()


def test_with_body_unwinds_through_context():
    func, cfg = cfg_of("""\
        def f(lock):
            with lock.guard():
                yield 1
        """)
    body_stmt = stmt_matching(func, "Yield")
    (node,) = cfg.nodes_for(body_stmt)
    assert cfg.except_exit in node.exc_succ


def test_while_loop_zero_iterations_reach_exit():
    func, cfg = cfg_of("""\
        def f(lock, cond):
            yield lock.acquire()
            while cond:
                yield 1
            lock.release()
        """)
    # Normal exit only via the release; exception via the loop body.
    assert exits_from(cfg, func, "acquire", "release") == {EXCEPT_EXIT}


def test_unreachable_code_after_raise_is_dropped():
    func, cfg = cfg_of("""\
        def f():
            raise ValueError()
            x = 1
        """)
    dead = stmt_matching(func, "Assign")
    assert cfg.nodes_for(dead) == []
