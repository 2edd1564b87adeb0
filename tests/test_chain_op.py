"""Property tests for the chain operator and its stages.

Three independent axes are checked against reference semantics, on
random streaming-operator chains over random rows, by driving the real
:class:`~repro.baseline.operators.ChainOp` over a list-backed source:

* **compilation**: a chain must produce row-identical output to a
  row-at-a-time walk of the same operators with the tree-walking
  expression interpreter (``tests/expr_oracle.py``);
* **batching**: the output must not depend on where batch boundaries
  fall -- batch sizes 1, 7, 64 and whole-table must agree;
* **fusion**: one chain over the whole run (what the iterator engine
  builds) and a stack of one-stage chains return the same rows at the
  same virtual time.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.operators import ChainOp, ExecContext, Operator
from repro.hw.host import Host, HostConfig
from repro.relational.expressions import Between, Col, Const, If, InList, Like
from repro.relational.plans import Distinct, Filter, Limit, PlanNode, Project
from repro.relational.schema import Column, Schema
from repro.storage.manager import StorageManager

from tests.expr_oracle import eval_expr

SCHEMA = Schema(
    [
        Column("id", "int"),
        Column("grp", "int"),
        Column("val", "float"),
        Column("name", "str"),
    ]
)

BATCH_SIZES = (1, 7, 64, None)  # None = whole table in one batch


class Rows(PlanNode):
    """The plan leaf under every test chain: rows of SCHEMA."""

    def __init__(self):
        super().__init__([])

    def output_schema(self, catalog):
        return SCHEMA


class ListSource(Operator):
    """A source operator over pre-sliced batches, free in virtual time."""

    def __init__(self, batches):
        super().__init__(SCHEMA)
        self._batches = iter([batch for batch in batches if batch])

    def next_batch(self):
        return next(self._batches, None)
        yield  # a coroutine, like every next_batch


def make_rows(rng: random.Random, n: int):
    names = ("alpha", "beta", "gamma", "delta")
    return [
        (i, rng.randrange(7), round(rng.uniform(0, 100), 3),
         rng.choice(names))
        for i in range(n)
    ]


def random_predicate(rng: random.Random, schema: Schema = SCHEMA):
    """A random predicate over whichever known columns *schema* kept."""
    atoms = []
    names = schema.names
    if "id" in names:
        atoms.append(Col("id") > rng.randrange(0, 150))
    if "grp" in names:
        atoms += [
            Col("grp") == rng.randrange(7),
            ~(Col("grp") == rng.randrange(7)),
            InList(Col("grp"), [rng.randrange(7) for _ in range(3)]),
        ]
    if "val" in names:
        atoms += [
            Col("val") > rng.uniform(5, 95),
            Between(
                Col("val"),
                *sorted((rng.uniform(0, 50), rng.uniform(50, 100))),
            ),
        ]
    if "name" in names:
        atoms += [Like(Col("name"), "%a%"), Like(Col("name"), "be%")]
    if "twice" in names:
        atoms.append(Col("twice") < rng.uniform(0, 200))
    if "flag" in names:
        atoms.append(Col("flag") == Const(1.0))
    if len(atoms) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(atoms, 2)
        return (a & b) if rng.random() < 0.5 else (a | b)
    return rng.choice(atoms)


def below(ops):
    """The child for the next node stacked on *ops*."""
    return ops[-1] if ops else Rows()


def random_chain(rng: random.Random):
    """A random run of streaming plan nodes over a ``Rows`` leaf,
    innermost first."""
    ops = []
    schema = SCHEMA
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(4)
        if kind == 0:
            ops.append(Filter(below(ops), random_predicate(rng, schema)))
        elif kind == 1 and len(schema.names) > 1:
            keep = [
                n for n in schema.names if rng.random() < 0.7
            ] or [schema.names[0]]
            ops.append(Project(below(ops), keep))
            schema = schema.project(keep)
        elif kind == 2 and "val" in schema.names:
            ops.append(
                Project(
                    below(ops),
                    ["twice", "flag"],
                    exprs=[
                        Col("val") * 2,
                        If(Col("val") > 50.0, Const(1.0), Const(0.0)),
                    ],
                )
            )
            schema = Schema(
                [Column("twice", "float"), Column("flag", "float")]
            )
        elif kind == 3:
            ops.append(Limit(below(ops), rng.randrange(0, 40),
                             offset=rng.randrange(0, 5)))
        else:
            ops.append(Distinct(below(ops)))
    if rng.random() < 0.3:
        ops.append(Distinct(below(ops)))
    return ops


def slice_batches(rows, size):
    if size is None:
        return [rows]
    return [rows[i:i + size] for i in range(0, len(rows), size)]


def new_ctx():
    host = Host(HostConfig())
    return ExecContext(sm=StorageManager(host, buffer_pages=4), host=host)


def run_chain(ops, rows, batch_size, fused=True):
    """``(rows out, virtual finish time)`` of *ops* over *rows*: as one
    chain, or as a stack of one-stage chains.  Stages are stateful
    (limit counters, distinct sets), so every run builds its own."""
    ctx = new_ctx()
    host = ctx.host
    root = ListSource(slice_batches(rows, batch_size))
    for run in [ops] if fused else [[op] for op in ops]:
        root = ChainOp(ctx, root, run)
    proc = host.sim.spawn(root.drain(), name="chain")
    host.sim.run()
    return proc.value, host.sim.now


def interpret_chain(ops, rows):
    """The reference: each operator over the whole stream, expressions
    walked per row by the oracle."""
    schema = SCHEMA
    for op in ops:
        if isinstance(op, Filter):
            rows = [r for r in rows if eval_expr(op.predicate, r, schema)]
        elif isinstance(op, Project):
            exprs = op.exprs or [Col(name) for name in op.names]
            rows = [
                tuple(eval_expr(e, r, schema) for e in exprs) for r in rows
            ]
        elif isinstance(op, Limit):
            rows = rows[op.offset:op.offset + op.count]
        else:
            rows = list(dict.fromkeys(rows))  # Distinct: first wins
        schema = op.output_schema(None)
    return rows


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_compiled_matches_interpreted_at_every_batch_size(seed):
    rng = random.Random(seed)
    rows = make_rows(rng, rng.randrange(0, 200))
    ops = random_chain(rng)

    reference = interpret_chain(ops, rows)
    for size in BATCH_SIZES:
        got, finished_at = run_chain(ops, rows, size)
        assert got == reference, f"mismatch at batch_size={size} for {ops}"
        assert run_chain(ops, rows, size, fused=False) == (got, finished_at)


def test_limit_state_is_per_compilation():
    """A LIMIT chain stops pulling once satisfied, and rebuilding
    resets its counters (stages are per-execution state)."""
    rows = make_rows(random.Random(1), 100)
    ops = [Limit(Rows(), 10, offset=3)]
    first, _ = run_chain(ops, rows, 7)
    second, _ = run_chain(ops, rows, 7)
    assert first == second == rows[3:13]


def test_chain_output_schema_tracks_projections():
    ops = [Filter(Rows(), Col("val") > 0)]
    ops.append(Project(ops[-1], ["grp", "val"]))
    ops.append(Project(ops[-1], ["double"], exprs=[Col("val") * 2]))
    chain = ChainOp(new_ctx(), ListSource([]), ops)
    assert chain.schema.names == ["double"]


def test_build_stage_rejects_breakers():
    from repro.relational.plans import Sort

    with pytest.raises(TypeError):
        ChainOp(new_ctx(), ListSource([]), [Sort(Rows(), keys=["val"])])
