"""Unit tests for expressions, predicates, and aggregates."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.expressions import (
    AggSpec,
    And,
    Between,
    Col,
    Const,
    InList,
    Like,
    Not,
    Or,
)
from repro.relational import compile
from repro.relational.schema import Schema

SCHEMA = Schema.of("a:int", "b:float", "s:str:10")


def test_column_and_const():
    assert Col("a").bind(SCHEMA)((5, 1.0, "x")) == 5
    assert Const(7).bind(SCHEMA)((5, 1.0, "x")) == 7


def test_comparisons_via_operators():
    pred = Col("a") > 3
    fn = pred.bind(SCHEMA)
    assert fn((4, 0.0, "")) and not fn((3, 0.0, ""))
    assert (Col("a") == 2).bind(SCHEMA)((2, 0.0, ""))
    assert (Col("a") != 2).bind(SCHEMA)((3, 0.0, ""))
    assert (Col("a") <= 2).bind(SCHEMA)((2, 0.0, ""))
    assert (Col("a") >= 2).bind(SCHEMA)((2, 0.0, ""))
    assert (Col("a") < 3).bind(SCHEMA)((2, 0.0, ""))


def test_arithmetic():
    expr = (Col("a") + 1) * Col("b") - Const(2)
    assert expr.bind(SCHEMA)((3, 2.0, "")) == 6.0
    assert (Col("a") / 2).bind(SCHEMA)((5, 0.0, "")) == 2.5


def test_boolean_composition():
    pred = (Col("a") > 1) & (Col("b") < 5.0)
    fn = pred.bind(SCHEMA)
    assert fn((2, 4.0, "")) and not fn((2, 6.0, ""))
    either = (Col("a") > 10) | (Col("b") < 5.0)
    assert either.bind(SCHEMA)((0, 1.0, ""))
    assert Not(Col("a") > 1).bind(SCHEMA)((0, 0.0, ""))
    assert (~(Col("a") > 1)).bind(SCHEMA)((0, 0.0, ""))


def test_and_or_need_terms():
    with pytest.raises(ValueError):
        And()
    with pytest.raises(ValueError):
        Or()


def test_between_inclusive():
    pred = Between(Col("a"), 2, 4).bind(SCHEMA)
    assert pred((2, 0, "")) and pred((4, 0, "")) and not pred((5, 0, ""))


def test_in_list():
    pred = InList(Col("a"), [1, 3, 5]).bind(SCHEMA)
    assert pred((3, 0, "")) and not pred((2, 0, ""))


def test_like_variants():
    contains = Like(Col("s"), "%bc%").bind(SCHEMA)
    assert contains((0, 0, "abcd")) and not contains((0, 0, "axd"))
    prefix = Like(Col("s"), "ab%").bind(SCHEMA)
    assert prefix((0, 0, "abz")) and not prefix((0, 0, "zab"))
    suffix = Like(Col("s"), "%yz").bind(SCHEMA)
    assert suffix((0, 0, "xyz")) and not suffix((0, 0, "yzx"))
    exact = Like(Col("s"), "abc").bind(SCHEMA)
    assert exact((0, 0, "abc")) and not exact((0, 0, "abcd"))


def test_signatures_stable_and_distinct():
    p1 = (Col("a") > 3) & (Col("b") < 2.0)
    p2 = (Col("a") > 3) & (Col("b") < 2.0)
    p3 = (Col("a") > 4) & (Col("b") < 2.0)
    assert p1.signature() == p2.signature()
    assert p1.signature() != p3.signature()


def test_in_list_signature_order_independent():
    assert (
        InList(Col("a"), [3, 1, 2]).signature()
        == InList(Col("a"), [2, 3, 1]).signature()
    )


def test_columns_collection():
    pred = (Col("a") > 3) & (Col("b") < Col("a"))
    assert pred.columns() == {"a", "b"}


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------
def test_agg_spec_validation():
    with pytest.raises(ValueError):
        AggSpec("median", Col("a"))
    with pytest.raises(ValueError):
        AggSpec("sum", None)
    assert AggSpec("count").name == "count"


def test_agg_accumulators():
    values = [3, 1, 4, 1, 5]
    for func, expected in [
        ("sum", 14),
        ("min", 1),
        ("max", 5),
        ("count", 5),
        ("avg", 2.8),
    ]:
        spec = AggSpec(func, Col("a") if func != "count" else None)
        state = spec.make_state()
        for value in values:
            state.add(value)
        assert state.result() == pytest.approx(expected)


def test_agg_empty_results():
    assert AggSpec("count").make_state().result() == 0
    assert AggSpec("sum", Col("a")).make_state().result() == 0
    assert AggSpec("min", Col("a")).make_state().result() is None
    assert AggSpec("avg", Col("a")).make_state().result() is None


def test_agg_merge():
    spec = AggSpec("max", Col("a"))
    s1, s2 = spec.make_state(), spec.make_state()
    s1.add(3)
    s2.add(7)
    s1.merge(s2)
    assert s1.result() == 7 and s1.count == 2


def test_agg_update_folds_a_batch():
    specs = [AggSpec("sum", Col("a"), "s"), AggSpec("count", None, "n")]
    states = [spec.make_state() for spec in specs]
    compile.agg_update(specs, SCHEMA)(states, [(5, 0, ""), (7, 0, "")])
    assert [state.result() for state in states] == [12, 2]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-100, 100), min_size=1, max_size=50))
def test_property_agg_matches_python(values):
    checks = [
        ("sum", sum(values)),
        ("min", min(values)),
        ("max", max(values)),
        ("count", len(values)),
        ("avg", sum(values) / len(values)),
    ]
    for func, expected in checks:
        spec = AggSpec(func, Col("a") if func != "count" else None)
        state = spec.make_state()
        for value in values:
            state.add(value)
        assert state.result() == pytest.approx(expected)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=2, max_size=40),
    st.integers(1, 39),
)
def test_property_agg_merge_equals_whole(values, split):
    split = min(split, len(values) - 1)
    for func in ("sum", "min", "max", "count", "avg"):
        spec = AggSpec(func, Col("a") if func != "count" else None)
        whole = spec.make_state()
        for value in values:
            whole.add(value)
        left, right = spec.make_state(), spec.make_state()
        for value in values[:split]:
            left.add(value)
        for value in values[split:]:
            right.add(value)
        left.merge(right)
        assert left.result() == pytest.approx(whole.result())
