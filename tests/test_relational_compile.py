"""The expression compiler against its oracles.

* Generated ``Expr`` trees over all eleven node types are checked row for
  row against the tree-walking interpreter (``tests/expr_oracle.py``) for
  every batch entry point.
* ``agg_update`` / ``group_update`` are checked against the per-row
  ``AggState.add`` loop under varying batch boundaries.
* The hash-family kernels (join build, the four probes, Grace partition,
  the group split) return what the per-row bodies they replaced return,
  in the same order, over keys a dict treats specially (None, NaN, ±0.0,
  ``1 == 1.0 == True``).
* ``key_range`` keeps the rows the clustered ``IndexScan`` loop kept, or
  raises what it raised, for bare and tuple keys and open bounds.
* The code cache is keyed by expression shape: constants never add
  entries, and each closure still sees its own.
* Float SUM/AVG equals the plain ``+=`` left fold on both engines
  (builtin ``sum`` compensates floats on Python >= 3.12).
"""

import math
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Aggregate,
    Host,
    HostConfig,
    IteratorEngine,
    QPipeConfig,
    QPipeEngine,
    StorageManager,
    TableScan,
)
from repro.relational import compile
from repro.relational.expressions import (
    AggSpec,
    And,
    Arith,
    Between,
    Cmp,
    Col,
    Const,
    If,
    InList,
    Like,
    Not,
    Or,
)
from repro.relational.schema import Schema

from tests import expr_oracle as oracle
from tests.expr_oracle import eval_expr

SCHEMA = Schema.of("id:int", "grp:int", "val:float", "name:str:8")
BATCH_SIZES = (1, 7, 64, None)  # None = the whole input in one batch

NAN = float("nan")
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def make_rows(rng: random.Random, n: int):
    names = ("alpha", "beta", "gamma", "delta", "")
    vals = (0.0, -1.5, NAN, float("inf"), 2.25)
    return [
        (
            i - 3,
            rng.randrange(5),
            rng.choice(vals) if rng.random() < 0.2
            else round(rng.uniform(-50, 50), 3),
            rng.choice(names),
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Expression strategies: loosely typed, so some trees raise (None < 1,
# 1 / 0) -- the compiler must then raise the same error the oracle does.
# ---------------------------------------------------------------------------
numbers = st.one_of(
    st.integers(-5, 5),
    st.floats(-50, 50, allow_nan=False),
    st.sampled_from([NAN, float("inf"), float("-inf"), True, False, -7]),
)
strings = st.sampled_from(["alpha", "beta", "a", "", "ta", "%"])
patterns = st.sampled_from(
    ["%a%", "al%", "%ta", "beta", "%", "%%", "", "a%a"]
)

num_leaf = st.one_of(
    st.sampled_from([Col("id"), Col("grp"), Col("val")]),
    numbers.map(Const),
)
str_leaf = st.one_of(st.just(Col("name")), strings.map(Const))


def _extend(children):
    """Grow numeric and boolean trees together; *children* draws either."""
    num = st.one_of(num_leaf, children)
    terms = st.lists(children, min_size=1, max_size=6)
    return st.one_of(
        st.builds(Cmp, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                  num, num),
        st.builds(Cmp, st.sampled_from(["==", "!="]), str_leaf, str_leaf),
        st.builds(Cmp, st.sampled_from(["==", "<"]), num,
                  st.just(Const(None))),
        st.builds(Arith, st.sampled_from(["+", "-", "*", "/"]), num, num),
        terms.map(lambda ts: And(*ts)),
        terms.map(lambda ts: Or(*ts)),
        st.builds(Not, children),
        st.builds(Between, num, numbers, numbers),
        st.builds(InList, num,
                  st.lists(st.one_of(numbers, st.none()), max_size=4)),
        st.builds(InList, str_leaf, st.lists(strings, max_size=3)),
        st.builds(Like, str_leaf, patterns),
        st.builds(If, children, num, num),
    )


exprs = st.recursive(num_leaf, _extend, max_leaves=12)


def same(a, b) -> bool:
    """Equal values of equal type (``True`` is not ``1``), NaN == NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the comparison is on the error's type
        return ("raised", type(exc))


def same_outcome(got, want) -> bool:
    if got[0] != want[0]:
        return False
    if got[0] == "raised":
        return got[1] is want[1]
    if isinstance(want[1], list):  # a batch: compare row for row
        return same(tuple(got[1]), tuple(want[1]))
    return same(got[1], want[1])


@settings(max_examples=300, deadline=None)
@given(expr=exprs, seed=st.integers(0, 1000))
def test_row_fn_matches_oracle(expr, seed):
    fn = compile.row_fn(expr, SCHEMA)
    for row in make_rows(random.Random(seed), 12):
        want = outcome(eval_expr, expr, row, SCHEMA)
        got = outcome(fn, row)
        assert same_outcome(got, want), (expr, row, got, want)


@settings(max_examples=200, deadline=None)
@given(pred=exprs, items=st.lists(exprs, min_size=1, max_size=3),
       seed=st.integers(0, 1000))
def test_batch_kernels_match_oracle(pred, items, seed):
    rng = random.Random(seed)
    rows = make_rows(rng, 20)
    names = rng.sample(SCHEMA.names, rng.randrange(1, 4))

    def keep(rows):
        return [r for r in rows if eval_expr(pred, r, SCHEMA)]

    def values(rows):
        return [tuple(eval_expr(e, r, SCHEMA) for e in items) for r in rows]

    def cols(rows):
        return [tuple(r[SCHEMA.index_of(n)] for n in names) for r in rows]

    checks = [
        (compile.filter(pred, SCHEMA), keep),
        (compile.project(items, SCHEMA), values),
        (compile.project(names, SCHEMA), cols),
        (compile.scan(pred, None, SCHEMA), keep),
        (compile.scan(None, names, SCHEMA), cols),
        (compile.scan(pred, names, SCHEMA), lambda rows: cols(keep(rows))),
        (compile.scan(None, None, SCHEMA), list),
    ]
    for kernel, reference in checks:
        assert same_outcome(outcome(kernel, rows), outcome(reference, rows))

    # A page's slot list: every third row a tombstone, never evaluated.
    slots = [None if i % 3 == 1 else r for i, r in enumerate(rows)]
    live = [(s, r) for s, r in enumerate(slots) if r is not None]
    got = outcome(compile.filter_items(pred, SCHEMA), slots)
    want = outcome(lambda: [(s, r) for s, r in live
                            if eval_expr(pred, r, SCHEMA)])
    assert same_outcome(got, want)
    assert compile.filter_items(None, SCHEMA)(slots) == live


def test_and_or_are_bool_in_value_position():
    rows = [(2, 0, 1.5, "a"), (0, 3, 0.0, "")]
    both = And(Col("id"), Col("val"))
    either = Or(Col("grp"), Col("name"))
    assert compile.project([both, either, both + 1], SCHEMA)(rows) == [
        (True, True, 2), (False, True, 1),
    ]
    assert all(
        type(v) is bool for row in compile.project([both, either], SCHEMA)(rows)
        for v in row
    )
    assert type(And(Col("id")).bind(SCHEMA)(rows[0])) is bool


def test_unknown_node_is_rejected():
    class Mystery(Col):
        pass

    assert compile.row_fn(Mystery("id"), SCHEMA)((4, 0, 0.0, "")) == 4
    with pytest.raises(TypeError):
        compile.row_fn(object(), SCHEMA)


# ---------------------------------------------------------------------------
# Aggregate folds
# ---------------------------------------------------------------------------
agg_specs = st.lists(
    st.one_of(
        st.just(AggSpec("count")),
        st.builds(
            AggSpec,
            st.sampled_from(["sum", "avg", "min", "max", "count"]),
            st.one_of(
                st.sampled_from([Col("id"), Col("grp"), Col("val")]),
                st.just(Col("val") * Const(1.1) - Col("id")),
                st.just(If(Col("grp") > 2, Col("val"), Const(0.0))),
            ),
        ),
    ),
    max_size=5,
)


def snapshot(states):
    return [(s.count, s.total, s.best) for s in states]


def slice_batches(rows, size):
    if size is None:
        return [rows]
    return [rows[i:i + size] for i in range(0, len(rows), size)]


@settings(max_examples=80, deadline=None)
@given(specs=agg_specs, seed=st.integers(0, 1000))
def test_agg_update_matches_per_row_add(specs, seed):
    rng = random.Random(seed)
    rows = [r for r in make_rows(rng, rng.randrange(0, 150))
            if not math.isnan(r[2])]
    want = [spec.make_state() for spec in specs]
    for row in rows:
        for state, spec in zip(want, specs):
            state.add(1 if spec.expr is None
                      else eval_expr(spec.expr, row, SCHEMA))
    for size in BATCH_SIZES:
        update = compile.agg_update(specs, SCHEMA)
        got = [spec.make_state() for spec in specs]
        for batch in slice_batches(rows, size):
            update(got, batch)
        assert same(tuple(snapshot(got)), tuple(snapshot(want)))
        assert [s.result() for s in got] == [s.result() for s in want]


@settings(max_examples=60, deadline=None)
@given(specs=agg_specs, seed=st.integers(0, 1000),
       keys=st.sampled_from([["grp"], ["grp", "name"], ["id"], []]))
def test_group_update_matches_per_row_add(specs, seed, keys):
    rng = random.Random(seed)
    rows = [r for r in make_rows(rng, rng.randrange(0, 150))
            if not math.isnan(r[2])]
    want = {}
    for row in rows:
        key = tuple(row[SCHEMA.index_of(k)] for k in keys)
        states = want.setdefault(key, [s.make_state() for s in specs])
        for state, spec in zip(states, specs):
            state.add(1 if spec.expr is None
                      else eval_expr(spec.expr, row, SCHEMA))
    for size in BATCH_SIZES:
        update = compile.group_update(specs, keys, SCHEMA)
        got = {}
        for batch in slice_batches(rows, size):
            update(got, batch)
        # Same groups, first seen in the same order, same accumulators.
        assert list(got) == list(want)
        for key in want:
            assert same(tuple(snapshot(got[key])),
                        tuple(snapshot(want[key])))


# ---------------------------------------------------------------------------
# Hash-family kernels against the per-row bodies they replaced
# ---------------------------------------------------------------------------
LEFT = Schema.of("lk:int", "lv:str:4")  # key first
RIGHT = Schema.of("rv:str:4", "rk:int")  # key last
#: Keys a dict treats specially, from a domain small enough that most
#: lists are heavy with duplicates.  NAN is one object on both sides (a
#: dict finds it by identity); the built floats are fresh NaNs (never
#: found).
join_keys = st.one_of(
    st.sampled_from(
        [None, NAN, 0.0, -0.0, 0, False, 1, 1.0, True, 2, 7, "a", "b", ""]
    ),
    st.builds(float, st.just("nan")),
)
key_lists = st.lists(join_keys, max_size=40)


def same_rows(got, want) -> bool:
    return same(tuple(got), tuple(want))


def same_table(got: dict, want: dict) -> bool:
    """*got* keyed by bare values, *want* by the old 1-tuples: the same
    keys first seen in the same order, the same row lists."""
    return same(
        tuple((key, tuple(rows)) for key, rows in got.items()),
        tuple((key[0], tuple(rows)) for key, rows in want.items()),
    )


@settings(max_examples=200, deadline=None)
@given(lkeys=key_lists, rkeys=key_lists, size=st.sampled_from(BATCH_SIZES))
def test_hash_join_kernels_match_the_per_row_bodies(lkeys, rkeys, size):
    lrows = [(key, f"l{i}") for i, key in enumerate(lkeys)]
    rrows = [(f"r{i}", key) for i, key in enumerate(rkeys)]
    lkey = oracle.projector(LEFT, ["lk"])
    rkey = oracle.projector(RIGHT, ["rk"])

    def built(kernel, reference, key, rows, make):
        got, want = make(), make()
        for batch in slice_batches(rows, size):
            kernel(got, batch)
            reference(want, batch, key)
        return got, want

    # Inner: build left, probe right, lrow + rrow.
    got, want = built(compile.hash_build("lk", LEFT), oracle.hash_build,
                      lkey, lrows, dict)
    assert same_table(got, want)
    probe = compile.hash_probe("rk", RIGHT, "inner")
    for batch in slice_batches(rrows, size):
        assert same_rows(probe(got, batch),
                         oracle.probe_inner(want, batch, rkey))

    # Outer: build right, probe left, misses padded to the right width.
    got, want = built(compile.hash_build("rk", RIGHT), oracle.hash_build,
                      rkey, rrows, dict)
    assert same_table(got, want)
    probe = compile.hash_probe("lk", LEFT, "outer", pad=len(RIGHT))
    for batch in slice_batches(lrows, size):
        assert same_rows(probe(got, batch),
                         oracle.probe_outer(want, batch, lkey, (None, None)))

    # Semi / anti: a key set from the right, a filter over the left.
    got, want = built(compile.key_set("rk", RIGHT), oracle.key_set,
                      rkey, rrows, set)
    assert len(got) == len(want)
    for kind in ("semi", "anti"):
        probe = compile.hash_probe("lk", LEFT, kind)
        for batch in slice_batches(lrows, size):
            assert same_rows(
                probe(got, batch),
                oracle.probe_semi(want, batch, lkey, anti=kind == "anti"),
            )


@settings(max_examples=100, deadline=None)
@given(keys=key_lists, nparts=st.sampled_from([1, 2, 3, 8]))
def test_partition_routes_by_the_one_tuple_hash(keys, nparts):
    rows = [(f"r{i}", key) for i, key in enumerate(keys)]
    buckets = compile.partition("rk", RIGHT)(rows, nparts)
    assert len(buckets) == nparts
    for b, bucket in enumerate(buckets):
        assert all(hash((row[1],)) % nparts == b for row in bucket)
    reference = oracle.partition(rows, oracle.projector(RIGHT, ["rk"]), nparts)
    assert all(map(same_rows, buckets, reference))


#: Index keys and bounds: numbers that compare across types, NaN (never
#: inside any range), and None / a string among them (an ordering
#: TypeError, which kernel and loop must raise alike).
range_keys = st.sampled_from(
    [-3, -0.0, 0, False, 1, 1.0, True, 2, 2.5, 7, NAN, float("inf")]
)
odd_keys = st.one_of(range_keys, st.sampled_from([None, "a"]))
bounds = st.one_of(st.none(), odd_keys)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(st.tuples(odd_keys, range_keys), max_size=30),
       lo=bounds, hi=bounds, lo2=range_keys, hi2=range_keys)
def test_key_range_matches_the_loop_the_engines_wrote_out(
    keys, lo, hi, lo2, hi2
):
    schema = Schema.of("pad:str:4", "k1:int", "k2:int")
    rows = [(f"r{i}", k1, k2) for i, (k1, k2) in enumerate(keys)]
    for columns, lo_, hi_ in (
        (["k1"], lo, hi),  # one key column: the bare value
        (["k2", "k1"], None if lo is None else (lo2, lo),
         None if hi is None else (hi2, hi)),  # several: the tuple
    ):
        keep = compile.key_range(columns, schema)
        key_fn = schema.key_of(columns)  # what IndexInfo.key_of is
        got = outcome(keep, rows, lo_, hi_)
        want = outcome(oracle.key_range, rows, key_fn, lo_, hi_)
        assert same_outcome(got, want), (columns, lo_, hi_, got, want)
        if lo_ is None and hi_ is None:
            assert got[1] is rows  # open on both sides: no copy


def test_unknown_probe_kind_is_rejected():
    with pytest.raises(ValueError):
        compile.hash_probe("lk", LEFT, "full")


KEYED = Schema.of("id:int", "grp:int", "val:float", "k:int")


@settings(max_examples=60, deadline=None)
@given(specs=agg_specs, keys=key_lists, seed=st.integers(0, 1000),
       cols=st.sampled_from([["k"], ["grp", "k"], []]))
def test_group_split_matches_the_python_split(specs, keys, seed, cols):
    rng = random.Random(seed)
    rows = [(i, rng.randrange(3), round(rng.uniform(-50, 50), 3), key)
            for i, key in enumerate(keys)]
    key_fn = oracle.projector(KEYED, cols) if cols else (lambda row: ())
    for size in BATCH_SIZES:
        want = {}
        for batch in slice_batches(rows, size):
            for key, part in oracle.group_split(batch, key_fn).items():
                states = want.get(key)
                if states is None:
                    states = want[key] = [s.make_state() for s in specs]
                for row in part:
                    for state, spec in zip(states, specs):
                        state.add(1 if spec.expr is None
                                  else eval_expr(spec.expr, row, KEYED))
        update = compile.group_update(specs, cols, KEYED)
        got = {}
        for batch in slice_batches(rows, size):
            update(got, batch)
        # Same group keys, first seen in the same order, same states.
        assert same(tuple(got), tuple(want))
        for g, w in zip(got.values(), want.values()):
            assert same(tuple(snapshot(g)), tuple(snapshot(w)))


# ---------------------------------------------------------------------------
# The code cache is keyed by shape
# ---------------------------------------------------------------------------
def test_constants_do_not_grow_the_code_cache():
    def predicate(i):
        return And(
            Col("id") >= i,
            Between(Col("val"), i * 0.5, NAN if i % 2 else i + 0.5),
            Or(Like(Col("name"), f"%{i % 7}%"),
               InList(Col("grp"), [i % 5, (i + 1) % 5])),
            Col("name") != f"n{i}",
        )

    compile.filter(predicate(-1), SCHEMA)  # the shape's one compile
    before = len(compile._code_cache)
    kernels = [compile.filter(predicate(i), SCHEMA) for i in range(1000)]
    assert len(compile._code_cache) == before

    rows = [(i, i % 5, i * 0.5 + 0.25, f"x{i % 7}") for i in range(0, 1000, 3)]
    for i in range(0, 1000, 37):
        want = [r for r in rows if eval_expr(predicate(i), r, SCHEMA)]
        assert kernels[i](rows) == want
    assert kernels[6](rows) and not kernels[7](rows)  # NaN bound: no row


def test_one_more_shape_is_one_more_entry():
    before = len(compile._code_cache)
    for value in (1, 2.5, "s", NAN, None):
        compile.row_fn(
            If(Col("grp") == value, Col("id") * -1, Col("val") / 3), SCHEMA
        )
    assert len(compile._code_cache) <= before + 1


def test_hash_kernels_are_cached_by_key_position():
    """A hundred joins on a hundred tables with the key in the same
    place compile each kernel once."""

    def kernels(i):
        schema = Schema.of(f"a{i}:int", f"k{i}:int", f"x{i}:float")
        key = f"k{i}"
        return [
            compile.hash_build(key, schema),
            compile.key_set(key, schema),
            compile.partition(key, schema),
            compile.hash_probe(key, schema, "outer", pad=i),
            *(compile.hash_probe(key, schema, kind)
              for kind in ("inner", "semi", "anti")),
            compile.group_update(
                [AggSpec("sum", Col(f"x{i}"), "s")], [key], schema
            ),
        ]

    kernels(0)  # each shape's one compile
    before = len(compile._code_cache)
    every = [kernels(i) for i in range(1, 100)]
    assert len(compile._code_cache) == before
    # Each closure still sees its own constant: the pad width.
    assert every[2][3]({}, [(0, 1, 2.0)]) == [(0, 1, 2.0, None, None, None)]


# ---------------------------------------------------------------------------
# Float folds are the left fold on every engine
# ---------------------------------------------------------------------------
def _float_table(n=6000):
    rng = random.Random(12)
    # Mixed magnitudes make compensated and plain summation disagree.
    return [(i, rng.uniform(-1, 1) * 10.0 ** rng.randrange(-8, 9))
            for i in range(n)]


@pytest.mark.parametrize("engine_name", ["packets", "iterator"])
def test_float_sum_is_the_plain_left_fold(engine_name):
    rows = _float_table()
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=16, policy="lru")
    sm.create_table("f", Schema.of("k:int", "x:float"))
    sm.load_table("f", rows)
    engine = {
        "packets": lambda: QPipeEngine(sm, QPipeConfig()),
        "iterator": lambda: IteratorEngine(sm),
    }[engine_name]()
    plan = Aggregate(
        TableScan("f"),
        [AggSpec("sum", Col("x"), "s"), AggSpec("avg", Col("x"), "a"),
         AggSpec("sum", Col("x") * Const(0.1), "t")],
    )
    total = scaled = 0
    for _k, x in rows:
        total += x
        scaled += x * 0.1
    assert engine.run_query(plan) == [(total, total / len(rows), scaled)]


def test_builtin_sum_is_not_used_over_row_values():
    """The regression's other half: nothing under src/ folds with sum()
    except integer bookkeeping (counts, sizes, stats)."""
    src = SRC / "repro"
    relational = (src / "relational" / "compile.py").read_text()
    assert not re.search(r"\bsum\(", relational.split('"""', 2)[2])
    for path in ("engine/engines/aggregates.py", "baseline/operators.py",
                 "shard/merge.py", "lineage/recovery.py"):
        assert not re.search(r"\bsum\(", (src / path).read_text()), path

