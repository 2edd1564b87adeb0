"""A page-based B+tree.

Nodes are block payloads inside the shared :class:`BlockStore`, so *timed*
traversals go through the buffer pool page by page (the storage manager
does this); the methods here also offer untimed direct access for
loaders, tests, and invariant checks.

Every key has one *bucket*, the values stored under it: the value itself
while the key is unique, a tuple of its values in insertion order once
it repeats (a secondary index over a foreign key, e.g. ORDERS.o_custkey,
repeats).  The form is read from the bucket's type, so a value may be
anything but a tuple; and a bucket is never tested for truth -- the
storage manager stores packed RIDs, and ``RID(0, 0)`` packs to ``0``.

Deletion is lazy: the (key, value) pair is removed from its leaf but
nodes are never merged.  The read-mostly workloads of the paper never
stress underflow, and the invariant checker accounts for it.

A node's contents are replace-on-write, like a page's slot list: a node
is a dict whose ``keys`` and ``vals`` (leaf) or ``keys`` and
``children`` (internal) are tuples, and insert, delete and split put
new tuples into the dict instead of changing the old ones; buckets are
immutable anyway.  The dict itself is written in place, so it is taken
for a write through :meth:`BlockStore.writable`: a captured tree and
the trees adopted from its :class:`TreeImage` hold the same frozen node
dicts, and a tree's first write to a node swaps a ``dict(node)`` of its
own into its block list -- over the same key, bucket and child tuples.
"""

from __future__ import annotations

import bisect
from itertools import groupby
from typing import Any, Iterator, List, NamedTuple, Tuple

from repro.storage.file import BlockStore

NO_NODE = -1


def _new_leaf() -> dict:
    return {"leaf": True, "keys": (), "vals": (), "next": NO_NODE}


def _new_internal() -> dict:
    return {"leaf": False, "keys": (), "children": ()}



def bucket_values(bucket: Any) -> tuple:
    """The values of one bucket, in insertion order."""
    return bucket if type(bucket) is tuple else (bucket,)


class BPlusTree:
    """A B+tree over ``(key, value)`` pairs with duplicate keys allowed.

    Args:
        store: block store that owns the tree's file.
        name: file label.
        order: maximum number of keys per node (>= 3).
    """

    def __init__(self, store: BlockStore, name: str, order: int = 64):
        if order < 3:
            raise ValueError(f"order must be >= 3: {order}")
        self.store = store
        self.name = name
        self.order = order
        self.file_id = store.create_file(name)
        self.root_block = store.append_block(self.file_id, _new_leaf())
        self.height = 1
        self.num_keys = 0
        self.num_entries = 0

    # ------------------------------------------------------------------
    # Node helpers (shared by timed and untimed traversal)
    # ------------------------------------------------------------------
    @staticmethod
    def child_for(node: dict, key: Any) -> int:
        """The child block to descend into for *key* (internal nodes)."""
        idx = bisect.bisect_right(node["keys"], key)
        return node["children"][idx]

    @staticmethod
    def leftmost_child(node: dict) -> int:
        return node["children"][0]

    def node(self, block_no: int) -> dict:
        """Untimed node fetch."""
        return self.store.read_block(self.file_id, block_no)

    # ------------------------------------------------------------------
    # Untimed operations
    # ------------------------------------------------------------------
    def _find_leaf(self, key: Any) -> Tuple[int, List[int]]:
        """Descend to the leaf for *key*; returns (leaf block, path)."""
        path: List[int] = []
        block = self.root_block
        node = self.node(block)
        while not node["leaf"]:
            path.append(block)
            block = self.child_for(node, key)
            node = self.node(block)
        return block, path

    def search(self, key: Any) -> List[Any]:
        """All values stored under *key* (empty list when absent)."""
        block, _path = self._find_leaf(key)
        node = self.node(block)
        idx = bisect.bisect_left(node["keys"], key)
        if idx < len(node["keys"]) and node["keys"][idx] == key:
            return list(bucket_values(node["vals"][idx]))
        return []

    def insert(self, key: Any, value: Any) -> None:
        """Insert one (key, value) pair, splitting nodes as needed."""
        if type(value) is tuple:
            raise TypeError("a B+tree value may not be a tuple (a tuple "
                            "is the bucket of a repeated key)")
        block, path = self._find_leaf(key)
        node = self.store.writable(self.file_id, block)
        keys, vals = node["keys"], node["vals"]
        idx = bisect.bisect_left(keys, key)
        self.num_entries += 1
        if idx < len(keys) and keys[idx] == key:
            bucket = vals[idx]
            bucket = ((*bucket, value) if type(bucket) is tuple
                      else (bucket, value))
            node["vals"] = (*vals[:idx], bucket, *vals[idx + 1:])
            return
        node["keys"] = (*keys[:idx], key, *keys[idx:])
        node["vals"] = (*vals[:idx], value, *vals[idx:])
        self.num_keys += 1
        if len(node["keys"]) > self.order:
            self._split(block, path)

    def delete(self, key: Any, value: Any = None) -> bool:
        """Remove *value* under *key* (or the whole key when value is None).

        Returns True when something was removed.  Lazy: no rebalancing.
        """
        block, _path = self._find_leaf(key)
        node = self.node(block)
        keys, vals = node["keys"], node["vals"]
        idx = bisect.bisect_left(keys, key)
        if idx >= len(keys) or keys[idx] != key:
            return False
        values = bucket_values(vals[idx])
        if value is not None:
            if value not in values:
                return False
            if len(values) > 1:
                at = values.index(value)
                rest = values[:at] + values[at + 1:]
                bucket = rest if len(rest) > 1 else rest[0]
                node = self.store.writable(self.file_id, block)
                node["vals"] = (*vals[:idx], bucket, *vals[idx + 1:])
                self.num_entries -= 1
                return True
        node = self.store.writable(self.file_id, block)
        node["keys"] = (*keys[:idx], *keys[idx + 1:])
        node["vals"] = (*vals[:idx], *vals[idx + 1:])
        self.num_keys -= 1
        self.num_entries -= len(values)
        return True

    def range_scan(
        self, lo: Any = None, hi: Any = None
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) pairs with lo <= key <= hi in key order.

        ``None`` bounds are unbounded.  Untimed; the storage manager
        implements the timed variant over the same leaf chain.
        """
        if lo is not None:
            block, _path = self._find_leaf(lo)
        else:
            block = self.root_block
            node = self.node(block)
            while not node["leaf"]:
                block = self.leftmost_child(node)
                node = self.node(block)
        while block != NO_NODE:
            node = self.node(block)
            for key, bucket in zip(node["keys"], node["vals"]):
                if lo is not None and key < lo:
                    continue
                if hi is not None and key > hi:
                    return
                for value in bucket_values(bucket):
                    yield key, value
            block = node["next"]

    def first_leaf(self) -> int:
        block = self.root_block
        node = self.node(block)
        while not node["leaf"]:
            block = self.leftmost_child(node)
            node = self.node(block)
        return block

    def bulk_build(self, sorted_keys: List[Any], values: List[Any]) -> None:
        """Bottom-up build from parallel lists: ``values[i]`` goes under
        ``sorted_keys[i]`` (ascending, duplicates adjacent; no value is
        a tuple).

        Replaces the current (expected empty) contents.
        """
        if self.num_keys:
            raise ValueError("bulk_build requires an empty tree")
        # Group the key list once: a run of equal keys is one bucket,
        # sliced out of the value list.  Checking order per run catches
        # the same inputs as checking it per entry: equal keys are never
        # split across runs, so any out-of-order entry surfaces as an
        # out-of-order run key.
        keys: List[Any] = []
        vals: List[Any] = []
        start = 0
        for key, run in groupby(sorted_keys):
            if keys and key < keys[-1]:
                raise ValueError("bulk_build input is not sorted")
            end = start + len(list(run))
            keys.append(key)
            vals.append(
                values[start] if end - start == 1
                else tuple(values[start:end])
            )
            start = end
        self.num_keys = len(keys)
        self.num_entries = len(values)
        if not keys:
            return

        # Build the leaf level at ~order*2/3 occupancy for insert headroom.
        fill = max(1, (self.order * 2) // 3)
        keys, vals = tuple(keys), tuple(vals)
        leaf_blocks: List[int] = []
        leaf_lows: List[Any] = []
        for start in range(0, len(keys), fill):
            leaf = _new_leaf()
            leaf["keys"] = keys[start:start + fill]
            leaf["vals"] = vals[start:start + fill]
            block = self.store.append_block(self.file_id, leaf)
            leaf_blocks.append(block)
            leaf_lows.append(leaf["keys"][0])
        for i in range(len(leaf_blocks) - 1):
            self.node(leaf_blocks[i])["next"] = leaf_blocks[i + 1]

        # Build internal levels bottom-up.
        level_blocks, level_lows = leaf_blocks, leaf_lows
        height = 1
        while len(level_blocks) > 1:
            parent_blocks: List[int] = []
            parent_lows: List[Any] = []
            for start in range(0, len(level_blocks), fill + 1):
                children = level_blocks[start:start + fill + 1]
                lows = level_lows[start:start + fill + 1]
                internal = _new_internal()
                internal["children"] = tuple(children)
                internal["keys"] = tuple(lows[1:])
                block = self.store.append_block(self.file_id, internal)
                parent_blocks.append(block)
                parent_lows.append(lows[0])
            level_blocks, level_lows = parent_blocks, parent_lows
            height += 1
        self.root_block = level_blocks[0]
        self.height = height

    # ------------------------------------------------------------------
    # Images (see repro.storage.image)
    # ------------------------------------------------------------------
    def capture(self) -> "TreeImage":
        return TreeImage(
            self.name,
            self.order,
            self.root_block,
            self.height,
            self.num_keys,
            self.num_entries,
            self.store.freeze(self.file_id),
        )

    # ------------------------------------------------------------------
    # Split machinery
    # ------------------------------------------------------------------
    def _split(self, block: int, path: List[int]) -> None:
        node = self.store.writable(self.file_id, block)
        mid = len(node["keys"]) // 2
        if node["leaf"]:
            right = _new_leaf()
            right["keys"] = node["keys"][mid:]
            right["vals"] = node["vals"][mid:]
            right["next"] = node["next"]
            node["keys"] = node["keys"][:mid]
            node["vals"] = node["vals"][:mid]
            right_block = self.store.append_block(self.file_id, right)
            node["next"] = right_block
            separator = right["keys"][0]
        else:
            right = _new_internal()
            separator = node["keys"][mid]
            right["keys"] = node["keys"][mid + 1:]
            right["children"] = node["children"][mid + 1:]
            node["keys"] = node["keys"][:mid]
            node["children"] = node["children"][:mid + 1]
            right_block = self.store.append_block(self.file_id, right)

        if not path:
            # Splitting the root: grow the tree by one level.
            new_root = _new_internal()
            new_root["keys"] = (separator,)
            new_root["children"] = (block, right_block)
            self.root_block = self.store.append_block(self.file_id, new_root)
            self.height += 1
            return
        parent_block = path[-1]
        parent = self.store.writable(self.file_id, parent_block)
        keys, children = parent["keys"], parent["children"]
        idx = bisect.bisect_right(keys, separator)
        parent["keys"] = (*keys[:idx], separator, *keys[idx:])
        parent["children"] = (
            *children[:idx + 1], right_block, *children[idx + 1:])
        if len(parent["keys"]) > self.order:
            self._split(parent_block, path[:-1])

    # ------------------------------------------------------------------
    # Invariant checking (property tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError when any structural invariant is violated."""
        leaf_depths = set()
        seen_keys: List[Any] = []
        bucket_sizes: List[int] = []

        def walk(block: int, depth: int, lo, hi):
            node = self.node(block)
            keys = list(node["keys"])
            assert keys == sorted(keys), f"unsorted keys in block {block}"
            for key in keys:
                assert lo is None or key >= lo, "key below subtree bound"
                assert hi is None or key < hi, "key above subtree bound"
            if node["leaf"]:
                leaf_depths.add(depth)
                assert len(node["vals"]) == len(keys)
                for bucket in node["vals"]:
                    # By length, never by truth: a packed RID may be 0.
                    size = len(bucket_values(bucket))
                    assert type(bucket) is not tuple or size >= 2, (
                        f"a tuple bucket of {size} values in block {block}"
                    )
                    bucket_sizes.append(size)
                seen_keys.extend(keys)
                return
            assert len(node["children"]) == len(keys) + 1, (
                f"internal block {block} fanout mismatch"
            )
            bounds = [lo] + keys + [hi]
            for i, child in enumerate(node["children"]):
                walk(child, depth + 1, bounds[i], bounds[i + 1])

        walk(self.root_block, 1, None, None)
        assert len(leaf_depths) == 1, f"leaves at multiple depths: {leaf_depths}"
        assert leaf_depths == {self.height}, (
            f"height {self.height} != leaf depth {leaf_depths}"
        )
        assert seen_keys == sorted(seen_keys), "global key order violated"
        assert len(seen_keys) == self.num_keys, (
            f"num_keys {self.num_keys} != actual {len(seen_keys)}"
        )
        assert sum(bucket_sizes) == self.num_entries, (
            f"num_entries {self.num_entries} != actual {sum(bucket_sizes)}"
        )
        # The leaf chain must visit the same keys in the same order.
        chained = [key for key, _v in self.range_scan()]
        deduped: List[Any] = []
        for key in chained:
            if not deduped or deduped[-1] != key:
                deduped.append(key)
        assert deduped == seen_keys, "leaf chain disagrees with tree walk"

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<BPlusTree {self.name}: {self.num_keys} keys, "
            f"{self.num_entries} entries, height {self.height}>"
        )


class TreeImage(NamedTuple):
    """A B+tree's content at one instant, shareable between systems.

    It holds the captured tree's own node dicts, frozen: the captured
    tree and every adopting tree's block list start out over these very
    dicts, and :meth:`BlockStore.writable` gives each a copy of one at
    its first write to it -- over the same key, bucket and child tuples.
    """

    name: str
    order: int
    root_block: int
    height: int
    num_keys: int
    num_entries: int
    #: One node per block, garbage blocks included (block numbers are
    #: part of what a system's disk model sees).
    nodes: Tuple[dict, ...]

    def adopt(self, store: BlockStore) -> BPlusTree:
        """A new tree in *store* with this content: one C-level list
        copy, nothing per node."""
        tree = BPlusTree(store, self.name, self.order)
        # Replaces the constructor's empty root leaf at block 0 too.
        store.share(tree.file_id, self.nodes)
        tree.root_block = self.root_block
        tree.height = self.height
        tree.num_keys = self.num_keys
        tree.num_entries = self.num_entries
        return tree
