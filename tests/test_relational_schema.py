"""Unit tests for schemas and columns."""

import pytest

from repro.relational.schema import Column, Schema


def test_schema_of_shorthand():
    schema = Schema.of("a:int", "b:str:25", "c:date", "d")
    assert schema.names == ["a", "b", "c", "d"]
    assert schema.column("b").width == 25
    assert schema.column("c").type == "date"
    assert schema.column("d").type == "int"


def test_default_widths():
    assert Column("x", "int").width == 4
    assert Column("x", "float").width == 8
    assert Column("x", "str").width == 16


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        Column("x", "blob")


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Schema.of("a:int", "a:int")


def test_row_width_sums_columns():
    schema = Schema.of("a:int", "b:str:30")
    assert schema.row_width == 34


def test_index_of_and_errors():
    schema = Schema.of("a:int", "b:int")
    assert schema.index_of("b") == 1
    with pytest.raises(KeyError):
        schema.index_of("zz")
    assert "a" in schema and "zz" not in schema


def test_project_preserves_order():
    schema = Schema.of("a:int", "b:int", "c:int")
    projected = schema.project(["c", "a"])
    assert projected.names == ["c", "a"]


def test_qualified_prefixes_names():
    schema = Schema.of("u1:int", "u2:int").qualified("big1")
    assert schema.names == ["big1.u1", "big1.u2"]


def test_concat_for_join_output():
    left = Schema.of("a:int")
    right = Schema.of("b:int")
    assert left.concat(right).names == ["a", "b"]


def test_key_function():
    schema = Schema.of("a:int", "b:int", "c:int")
    assert schema.key_of(["c", "a"])((1, 2, 3)) == (3, 1)
    # One name yields the bare column, which orders like its 1-tuple.
    assert schema.key_of(["b"])((1, 2, 3)) == 2


def test_equality_and_hash():
    s1 = Schema.of("a:int", "b:int")
    s2 = Schema.of("a:int", "b:int")
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != Schema.of("a:int")
