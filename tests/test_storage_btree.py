"""Unit and property tests for the page-based B+tree."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.storage.btree import BPlusTree
from repro.storage.file import BlockStore


def make_tree(order=4):
    return BPlusTree(BlockStore(), "idx", order=order)


def bulk_build(tree, pairs):
    """``tree.bulk_build`` from (key, value) pairs: it takes the two
    columns as parallel lists."""
    tree.bulk_build([k for k, _v in pairs], [v for _k, v in pairs])


def test_empty_tree_search():
    tree = make_tree()
    assert tree.search(42) == []
    assert list(tree.range_scan()) == []
    tree.check_invariants()


def test_order_validation():
    with pytest.raises(ValueError):
        BPlusTree(BlockStore(), "idx", order=2)


def test_insert_and_search():
    tree = make_tree()
    for key in [5, 3, 8, 1, 9, 7]:
        tree.insert(key, key * 10)
    assert tree.search(8) == [80]
    assert tree.search(2) == []
    tree.check_invariants()


def test_duplicate_keys_accumulate():
    tree = make_tree()
    tree.insert(7, "a")
    tree.insert(7, "b")
    assert tree.search(7) == ["a", "b"]
    assert tree.num_keys == 1
    assert tree.num_entries == 2


def test_splits_grow_height():
    tree = make_tree(order=3)
    for key in range(50):
        tree.insert(key, key)
    assert tree.height > 1
    tree.check_invariants()
    for key in range(50):
        assert tree.search(key) == [key]


def test_range_scan_inclusive_bounds():
    tree = make_tree(order=4)
    for key in range(0, 20, 2):  # evens 0..18
        tree.insert(key, key)
    got = [k for k, _v in tree.range_scan(4, 10)]
    assert got == [4, 6, 8, 10]


def test_range_scan_open_bounds():
    tree = make_tree(order=4)
    for key in range(10):
        tree.insert(key, key)
    got = [k for k, _v in tree.range_scan(2, 6, lo_open=True, hi_open=True)]
    assert got == [3, 4, 5]


def test_range_scan_unbounded():
    tree = make_tree(order=4)
    keys = [9, 1, 5, 3, 7]
    for key in keys:
        tree.insert(key, key)
    assert [k for k, _v in tree.range_scan()] == sorted(keys)
    assert [k for k, _v in tree.range_scan(lo=5)] == [5, 7, 9]
    assert [k for k, _v in tree.range_scan(hi=5)] == [1, 3, 5]


def test_delete_value_and_key():
    tree = make_tree()
    tree.insert(4, "a")
    tree.insert(4, "b")
    assert tree.delete(4, "a") is True
    assert tree.search(4) == ["b"]
    assert tree.delete(4, "b") is True
    assert tree.search(4) == []
    assert tree.num_keys == 0
    assert tree.delete(4, "zzz") is False


def test_delete_whole_key():
    tree = make_tree()
    tree.insert(1, "a")
    tree.insert(1, "b")
    assert tree.delete(1) is True
    assert tree.search(1) == []
    assert tree.num_entries == 0


def test_bulk_build_matches_inserts():
    pairs = [(k, k * 2) for k in range(200)]
    bulk = make_tree(order=8)
    bulk_build(bulk, pairs)
    bulk.check_invariants()
    assert [kv for kv in bulk.range_scan()] == pairs
    assert bulk.height > 1


def test_bulk_build_with_duplicates():
    pairs = [(1, "a"), (1, "b"), (2, "c")]
    tree = make_tree()
    bulk_build(tree, pairs)
    assert tree.search(1) == ["a", "b"]
    assert tree.num_keys == 2
    assert tree.num_entries == 3


def test_bulk_build_rejects_unsorted():
    tree = make_tree()
    with pytest.raises(ValueError):
        bulk_build(tree, [(2, "a"), (1, "b")])


def test_bulk_build_rejects_nonempty():
    tree = make_tree()
    tree.insert(1, "a")
    with pytest.raises(ValueError):
        bulk_build(tree, [(2, "b")])


def test_insert_after_bulk_build():
    tree = make_tree(order=6)
    bulk_build(tree, [(k, k) for k in range(0, 100, 2)])
    for key in range(1, 100, 2):
        tree.insert(key, key)
    tree.check_invariants()
    assert [k for k, _v in tree.range_scan()] == list(range(100))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(-1000, 1000), min_size=0, max_size=300),
    order=st.integers(3, 16),
)
def test_property_inserts_preserve_invariants_and_contents(keys, order):
    tree = BPlusTree(BlockStore(), "idx", order=order)
    reference = {}
    for i, key in enumerate(keys):
        tree.insert(key, i)
        reference.setdefault(key, []).append(i)
    tree.check_invariants()
    for key, values in reference.items():
        assert tree.search(key) == values
    scanned = [k for k, _v in tree.range_scan()]
    expected = sorted(
        (k for k, vs in reference.items() for _ in vs),
    )
    assert scanned == expected


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.integers(0, 500), min_size=1, max_size=200, unique=True
    ),
    order=st.integers(3, 12),
    data=st.data(),
)
def test_property_range_scan_agrees_with_filter(keys, order, data):
    tree = BPlusTree(BlockStore(), "idx", order=order)
    for key in sorted(keys):
        tree.insert(key, key)
    lo = data.draw(st.integers(-10, 510))
    hi = data.draw(st.integers(lo, 520))
    got = [k for k, _v in tree.range_scan(lo, hi)]
    assert got == sorted(k for k in keys if lo <= k <= hi)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(0, 200), min_size=1, max_size=150),
    order=st.integers(3, 10),
)
def test_property_bulk_build_equals_incremental(keys, order):
    pairs = sorted((k, i) for i, k in enumerate(keys))
    bulk = BPlusTree(BlockStore(), "b", order=order)
    bulk_build(bulk, pairs)
    incr = BPlusTree(BlockStore(), "i", order=order)
    for key, value in pairs:
        incr.insert(key, value)
    bulk.check_invariants()
    incr.check_invariants()
    assert list(bulk.range_scan()) == list(incr.range_scan())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=120),
    st.data(),
)
def test_property_deletes_keep_invariants(keys, data):
    tree = BPlusTree(BlockStore(), "idx", order=4)
    for i, key in enumerate(keys):
        tree.insert(key, i)
    unique = sorted(set(keys))
    to_delete = data.draw(
        st.lists(st.sampled_from(unique), max_size=len(unique))
    )
    expected = {}
    for i, key in enumerate(keys):
        expected.setdefault(key, []).append(i)
    for key in to_delete:
        tree.delete(key)
        expected.pop(key, None)
    tree.check_invariants()
    for key in unique:
        assert tree.search(key) == expected.get(key, [])
