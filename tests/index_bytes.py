"""What a loaded B+tree index holds, measured in a fresh interpreter.

``python -m tests.index_bytes NAME`` (from the repository root, with
``src`` on the path) prints ``(built, adopted)``: the bytes tracemalloc
sees held by ``create_index`` over a loaded table of 10,000 ``(k, v)``
rows -- its B+tree and the packed RIDs in it -- and the bytes one
``TreeImage.adopt`` of that tree adds.  NAME picks the keys: ``unique``
(every key once) or ``five_per_key`` (2,000 keys x 5 rows).

A fresh interpreter because an instance's attribute dict may share its
class's key table (CPython 3.11+) depending on the instances made
before it: in a test process the same build read up to 400 bytes
differently after different tests.  ``test_kernel_budget`` runs this.
"""

import gc
import sys
import tracemalloc

from repro.hw.host import Host, HostConfig
from repro.relational.schema import Schema
from repro.storage.file import BlockStore
from repro.storage.manager import StorageManager

ROWS = 10_000
KEYS = {
    "unique": range(ROWS),
    "five_per_key": [i % 2_000 for i in range(ROWS)],
}


def loaded(rows) -> StorageManager:
    sm = StorageManager(Host(HostConfig()))
    sm.create_table("t", Schema.of("k:int", "v:int"))
    sm.load_table("t", rows)
    return sm


def drained_free_lists() -> list:
    """Take every list, dict, dict key table and small tuple the
    interpreter keeps for reuse, so each container a build keeps is a
    traced allocation.  Keep the result alive over the window."""
    return ([[] for _ in range(200)] + [{"k": 0} for _ in range(200)]
            + [tuple(range(n)) for n in range(1, 21) for _ in range(2_001)])


def index_bytes(keys) -> tuple:
    rows = [(key, i) for i, key in enumerate(keys)]
    # Every path runs once first: a unique and a repeated key, a
    # capture and an adopt.
    loaded([(0, 0), (0, 1), (1, 2)]).create_index(
        "t", ["k"]).tree.capture().adopt(BlockStore())
    sm = loaded(rows)
    store = BlockStore()
    spare = drained_free_lists()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = sm.create_index("t", ["k"]).tree
        built = tracemalloc.get_traced_memory()[0] - before
        image = tree.capture()
        before = tracemalloc.get_traced_memory()[0]
        adopted = image.adopt(store)
        copy = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert adopted.num_entries == tree.num_entries == len(rows) and spare
    return built, copy


if __name__ == "__main__":
    print(index_bytes(KEYS[sys.argv[1]]))
