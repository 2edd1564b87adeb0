"""Unit tests for pages, slots, RIDs, and heap files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.file import BlockStore, HeapFile
from repro.storage.page import PAGE_SIZE, Page, RID, rows_per_page


def test_rows_per_page_geometry():
    assert rows_per_page(200) == PAGE_SIZE // 200
    assert rows_per_page(PAGE_SIZE + 1) == 1  # at least one row per page


def test_rows_per_page_rejects_bad_width():
    with pytest.raises(ValueError):
        rows_per_page(0)


def test_page_insert_and_get():
    page = Page(capacity=3)
    assert page.insert((1, "a")) == 0
    assert page.insert((2, "b")) == 1
    assert page.get(0) == (1, "a")
    assert page.num_live == 2
    assert not page.full


def test_page_full_rejects_insert():
    page = Page(capacity=1)
    page.insert((1,))
    assert page.full
    with pytest.raises(ValueError):
        page.insert((2,))


def test_page_delete_leaves_tombstone():
    page = Page(capacity=3)
    page.insert((1,))
    page.insert((2,))
    page.delete(0)
    assert page.get(0) is None
    assert page.num_slots == 2  # slot survives as a tombstone
    assert page.rows() == [(2,)]
    assert list(page.items()) == [(1, (2,))]


def test_page_update_rejects_tombstone():
    page = Page(capacity=2)
    page.insert((1,))
    page.delete(0)
    with pytest.raises(ValueError):
        page.update(0, (9,))


_WRITES = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "restore", "extend"]),
        st.integers(0, 7),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(writes=_WRITES)
def test_lists_handed_out_never_change_under_later_writes(writes):
    """Replace-on-write: readers hold ``rows()`` across simulated waits,
    so no later write may reach a list the page already handed out."""
    page = Page(capacity=8)
    model = []  # the slot list, kept independently
    handed_out = []  # (the list a reader got, what it held at that time)
    for serial, (op, slot) in enumerate(writes):
        row = (serial,)
        if op == "insert" and len(model) < 8:
            assert page.insert(row) == len(model)
            model.append(row)
        elif op == "extend":
            batch = [(serial, i) for i in range(slot % 3 + 1)]
            taken = page.extend(batch)
            assert taken == min(len(batch), 8 - len(model))
            model.extend(batch[:taken])
        elif slot < len(model):
            if op == "update" and model[slot] is not None:
                page.update(slot, row)
                model[slot] = row
            elif op == "delete":
                page.delete(slot)
                model[slot] = None
            elif op == "restore" and model[slot] is None:
                page.restore(slot, row)
                model[slot] = row
        live = [r for r in model if r is not None]
        assert page.rows() == live
        assert page.rows() is page.rows()  # built once per write, not per read
        assert page.slots() == model
        assert page.num_live == len(page) == len(live)
        assert list(page.items()) == [
            (i, r) for i, r in enumerate(model) if r is not None
        ]
        handed_out.append((page.rows(), list(live)))
        handed_out.append((page.slots(), list(model)))
        for held, snapshot in handed_out:
            assert held == snapshot


def test_page_without_tombstones_hands_out_its_slot_list_uncopied():
    page = Page(capacity=4)
    page.extend([(1,), (2,)])
    assert page.rows() is page.slots()
    page.delete(0)
    assert page.rows() == [(2,)] and page.slots() == [None, (2,)]


def test_page_slot_bounds_checked():
    page = Page(capacity=2)
    with pytest.raises(IndexError):
        page.get(0)


def test_rid_orders_by_page_then_slot():
    rids = [RID(2, 0), RID(1, 5), RID(1, 2)]
    assert sorted(rids) == [RID(1, 2), RID(1, 5), RID(2, 0)]


def test_heapfile_append_creates_pages():
    store = BlockStore()
    heap = HeapFile(store, "t", rows_per_page=2)
    rids = [heap.append_row((i,)) for i in range(5)]
    assert heap.num_pages == 3
    assert heap.num_rows == 5
    assert rids[0] == RID(0, 0)
    assert rids[2] == RID(1, 0)
    assert heap.fetch(rids[4]) == (4,)


def test_heapfile_all_rows_in_file_order():
    store = BlockStore()
    heap = HeapFile(store, "t", rows_per_page=3)
    heap.bulk_load([(i,) for i in range(10)])
    assert heap.all_rows() == [(i,) for i in range(10)]
    assert [rid for rid, _row in heap.rids_and_rows()] == sorted(
        rid for rid, _row in heap.rids_and_rows()
    )


def test_heapfile_fetch_tombstone_raises():
    store = BlockStore()
    heap = HeapFile(store, "t", rows_per_page=4)
    rid = heap.append_row((1,))
    heap.page(rid.block_no).delete(rid.slot)
    with pytest.raises(KeyError):
        heap.fetch(rid)


def test_blockstore_file_lifecycle():
    store = BlockStore()
    fid = store.create_file("x")
    assert store.file_name(fid) == "x"
    b0 = store.append_block(fid, "payload")
    assert store.read_block(fid, b0) == "payload"
    store.drop_file(fid)
    with pytest.raises(KeyError):
        store.read_block(fid, 0)


def test_blockstore_copies_a_shared_block_at_its_first_write():
    shared = (Page(4), Page(4))
    stores = [BlockStore(), BlockStore()]
    for store in stores:
        fid = store.create_file("x")
        store.share(fid, shared)
    store, sibling = stores
    own = store.writable(fid, 1)
    assert own is not shared[1] and own.slots() is shared[1].slots()
    assert store.writable(fid, 1) is own and store.read_block(fid, 1) is own
    own.insert((1,))
    assert shared[1].num_slots == 0
    assert sibling.read_block(fid, 1) is shared[1]
    assert store.read_block(fid, 0) is shared[0]  # never written: shared
    appended = store.append_block(fid, Page(4))
    assert store.writable(fid, appended) is store.read_block(fid, appended)


def test_blockstore_block_bounds():
    store = BlockStore()
    fid = store.create_file("x")
    with pytest.raises(IndexError):
        store.read_block(fid, 0)
