"""Unit and property tests for the page-based B+tree."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.hw.host import Host, HostConfig
from repro.relational.schema import Schema
from repro.storage.btree import BPlusTree
from repro.storage.file import BlockStore
from repro.storage.manager import StorageManager
from repro.storage.page import PAGE_SIZE, RID, pack_rid, unpack_rid


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


# ---------------------------------------------------------------------------
# Buckets: the value itself for a unique key, a tuple once it repeats
# ---------------------------------------------------------------------------
def bucket(tree, key):
    """The raw bucket *key* maps to (None when absent)."""
    node = tree.node(tree._find_leaf(key)[0])
    if key in node["keys"]:
        return node["vals"][node["keys"].index(key)]
    return None


def assert_holds(tree, key, values):
    """*key* holds *values* (in order) in the canonical bucket form."""
    held = bucket(tree, key)
    if not values:
        assert held is None
    elif len(values) == 1:
        assert type(held) is not tuple and held == values[0]
    else:
        assert held == tuple(values)
    assert tree.search(key) == values
    assert [v for _k, v in tree.range_scan(key, key)] == values
    tree.check_invariants()


def test_a_tree_whose_only_entry_is_rid_0_0():
    """``pack_rid(RID(0, 0)) == 0``: nothing may take the bucket, or the
    value, for "empty" by its truth."""
    host = Host(HostConfig())
    sm = StorageManager(host, index_order=3)
    sm.create_table("t", Schema.of("id:int", "v:int"), clustered_on=["id"])
    sm.load_table("t", [(7, 70)])
    info = sm.create_index("t", ["id"], name="t_id", clustered=True)
    tree = info.tree
    assert pack_rid(RID(0, 0)) == 0
    assert_holds(tree, 7, [0])
    assert tree.num_keys == 1 and tree.num_entries == 1

    def reads():
        pairs = yield from sm.index_range("t", "t_id", 7, 7)
        page = yield from sm.clustered_start_page("t", "t_id", 7)
        return pairs, page

    proc = host.sim.spawn(reads())
    host.sim.run()
    assert proc.value == ([(7, RID(0, 0))], 0)
    assert tree.delete(7, 0) is True
    assert_holds(tree, 7, [])
    assert tree.num_entries == 0
    assert tree.delete(7, 0) is False
    tree.insert(7, 0)
    assert_holds(tree, 7, [0])


def test_insert_takes_a_key_from_unique_to_repeated():
    tree = make_tree(order=3)
    for key in range(10):
        tree.insert(key, key + 100)
    assert_holds(tree, 4, [104])
    tree.insert(4, 0)
    assert_holds(tree, 4, [104, 0])
    tree.insert(4, 104)  # a duplicate value is one more entry
    assert_holds(tree, 4, [104, 0, 104])
    assert tree.num_entries == 12
    with pytest.raises(TypeError):
        tree.insert(4, (1, 2))


def test_delete_of_a_value_takes_a_key_from_repeated_to_unique_to_gone():
    tree = make_tree(order=3)
    for key in range(10):
        tree.insert(key, key + 100)
    tree.insert(4, 0)
    tree.insert(4, 5)
    assert_holds(tree, 4, [104, 0, 5])
    assert tree.delete(4, 0) is True
    assert_holds(tree, 4, [104, 5])
    assert tree.delete(4, 99) is False
    assert tree.delete(4, 104) is True
    assert_holds(tree, 4, [5])
    assert tree.delete(4, 5) is True
    assert_holds(tree, 4, [])
    assert tree.num_keys == 9 and tree.num_entries == 9


def test_delete_of_a_key_removes_every_value_of_its_bucket():
    tree = make_tree(order=3)
    bulk_build(tree, [(1, 10), (2, 0), (2, 20), (2, 30), (3, 0)])
    assert_holds(tree, 2, [0, 20, 30])
    assert_holds(tree, 3, [0])
    assert tree.delete(2) is True
    assert_holds(tree, 2, [])
    assert tree.num_keys == 2 and tree.num_entries == 2
    assert tree.delete(3) is True
    assert_holds(tree, 3, [])
    assert tree.num_entries == 1


def test_bulk_build_and_then_insert_and_delete_walk_one_key_through_each_form():
    tree = make_tree(order=4)
    bulk_build(tree, [(k, k) for k in range(30)])
    assert_holds(tree, 0, [0])
    tree.insert(0, 7)
    assert_holds(tree, 0, [0, 7])
    tree.delete(0, 7)
    assert_holds(tree, 0, [0])
    tree.delete(0, 0)
    assert_holds(tree, 0, [])


def test_check_invariants_counts_entries_by_bucket_size():
    tree = make_tree(order=4)
    bulk_build(tree, [(1, 0), (1, 1), (2, 0)])
    tree.check_invariants()
    tree.num_entries -= 1
    with pytest.raises(AssertionError, match="num_entries"):
        tree.check_invariants()
    tree.num_entries += 1
    leaf = tree.node(tree.first_leaf())
    leaf["vals"] = ((0,), 0)  # a repeated key's bucket of one value
    with pytest.raises(AssertionError, match="tuple bucket of 1"):
        tree.check_invariants()


# ---------------------------------------------------------------------------
# Packed RIDs: a differential against a multimap, through the manager
# ---------------------------------------------------------------------------
rids = st.one_of(
    st.just(RID(0, 0)),
    st.builds(RID, st.integers(0, 3), st.just(PAGE_SIZE - 1)),
    st.builds(RID, st.integers(0, 40), st.integers(0, PAGE_SIZE - 1)),
    st.builds(RID, st.integers(2**31, 2**62), st.integers(0, PAGE_SIZE - 1)),
)


@settings(max_examples=200, deadline=None)
@given(a=rids, b=rids)
def test_property_pack_rid_round_trips_and_keeps_rid_order(a, b):
    assert unpack_rid(pack_rid(a)) == a
    assert type(unpack_rid(pack_rid(a))) is RID
    assert (pack_rid(a) < pack_rid(b)) == (a < b)
    assert (pack_rid(a) == pack_rid(b)) == (a == b)


def test_pack_rid_refuses_a_slot_that_does_not_fit_a_page():
    assert pack_rid(RID(1, 0)) == PAGE_SIZE
    for slot in (PAGE_SIZE, -1):
        with pytest.raises(ValueError):
            pack_rid(RID(0, slot))


keys = st.integers(0, 11)  # few enough that keys repeat
tree_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), keys, rids),
        st.tuples(st.just("delete_value"), keys, st.integers(0, 7)),
        st.tuples(st.just("delete_key"), keys),
        st.tuples(st.just("search"), keys),
        st.tuples(st.just("range_scan"), keys, keys, st.booleans(),
                  st.booleans()),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(
    loaded=st.lists(st.tuples(keys, rids), min_size=8, max_size=80),
    ops=tree_ops,
    order=st.integers(3, 8),
)
def test_property_tree_agrees_with_a_multimap_under_packed_rids(
    loaded, ops, order
):
    """``bulk_build`` and then interleaved writes and reads on an index
    of a storage manager, against key -> values in insertion order; the
    manager's timed ``index_range`` unpacks what the tree holds."""
    host = Host(HostConfig())
    sm = StorageManager(host, index_order=order)
    sm.create_table("t", Schema.of("k:int", "v:int"))
    tree = sm.create_index("t", ["k"], name="t_k").tree
    loaded = sorted(loaded, key=lambda pair: pair[0])  # stable: keeps RIDs
    reference = {}
    for key, rid in loaded:
        reference.setdefault(key, []).append(pack_rid(rid))
    tree.bulk_build([k for k, _r in loaded], [pack_rid(r) for _k, r in loaded])

    def expected(lo=None, hi=None, lo_open=False, hi_open=False):
        return [
            (key, value) for key in sorted(reference)
            if (lo is None or key > lo or (key == lo and not lo_open))
            and (hi is None or key < hi or (key == hi and not hi_open))
            for value in reference[key]
        ]

    for op in ops:
        name, key = op[0], op[1]
        if name == "insert":
            tree.insert(key, pack_rid(op[2]))
            reference.setdefault(key, []).append(pack_rid(op[2]))
        elif name == "delete_value":
            # Mostly a value some key holds, sometimes one no key holds
            # (no drawn RID is on block 999).
            if reference and op[2] < 6:
                key = sorted(reference)[key % len(reference)]
            held = reference.get(key, [])
            value = (held[op[2] % len(held)] if held and op[2] < 6
                     else pack_rid(RID(999, op[2])))
            assert tree.delete(key, value) is (value in held)
            if value in held:
                held.remove(value)
                if not held:
                    del reference[key]
        elif name == "delete_key":
            assert tree.delete(key) is (key in reference)
            reference.pop(key, None)
        elif name == "search":
            assert tree.search(key) == reference.get(key, [])
        else:
            lo, hi, lo_open, hi_open = sorted(op[1:3]) + list(op[3:])
            assert list(tree.range_scan(lo, hi, lo_open, hi_open)) == (
                expected(lo, hi, lo_open, hi_open))
    tree.check_invariants()
    assert list(tree.range_scan()) == expected()
    assert tree.num_keys == len(reference)

    def scan():
        return (yield from sm.index_range("t", "t_k"))

    proc = host.sim.spawn(scan())
    host.sim.run()
    assert proc.value == [(k, unpack_rid(v)) for k, v in expected()]
