"""The storage manager: the reproduction's stand-in for BerkeleyDB.

The paper builds QPipe on top of the BerkeleyDB storage manager, relying on
it for page access methods, the buffer pool, and lock management.  This
package implements those pieces from scratch:

* :mod:`repro.storage.page` -- pages, slots, and record identifiers.
* :mod:`repro.storage.file` -- the block store and heap files.
* :mod:`repro.storage.replacement` -- buffer replacement policies
  (LRU, MRU, Clock, LRU-K, 2Q, ARC; section 2.1 of the paper).
* :mod:`repro.storage.bufferpool` -- the buffer pool with in-flight read
  coalescing and pin counts.
* :mod:`repro.storage.btree` -- page-based B+trees (clustered secondary
  access paths and unclustered RID indexes).
* :mod:`repro.storage.locks` -- table-level shared/exclusive locks
  (section 4.3.4: updates route through locking).
* :mod:`repro.storage.manager` -- the facade the engines program against.
* :mod:`repro.storage.log` -- the durable-log device under the WAL
  (:mod:`repro.storage.wal`) and the lineage logs.
* :mod:`repro.storage.image` -- loaded tables as shareable images, and
  the memo that builds each database once per process.
"""

from repro.storage.bufferpool import BufferPool
from repro.storage.btree import BPlusTree
from repro.storage.catalog import Catalog, IndexInfo, TableInfo
from repro.storage.file import BlockStore, HeapFile
from repro.storage.image import StorageImage, load_once
from repro.storage.locks import LockManager, LockMode
from repro.storage.log import LogDevice
from repro.storage.manager import StorageManager
from repro.storage.page import RID, Page
from repro.storage.partition import (
    PartitionInfo,
    hash_partition,
    partition_rows,
    range_partition,
    stable_hash,
)
from repro.storage.wal import (
    LogRecord,
    LogType,
    Transaction,
    TransactionManager,
    TransactionState,
)
from repro.storage.replacement import (
    ARC,
    Clock,
    LRU,
    LRUK,
    MRU,
    ReplacementPolicy,
    TwoQ,
    make_policy,
)

__all__ = [
    "ARC",
    "BPlusTree",
    "BlockStore",
    "BufferPool",
    "Catalog",
    "Clock",
    "HeapFile",
    "IndexInfo",
    "LockManager",
    "LockMode",
    "LogDevice",
    "LogRecord",
    "LogType",
    "LRU",
    "LRUK",
    "MRU",
    "Page",
    "PartitionInfo",
    "RID",
    "ReplacementPolicy",
    "StorageImage",
    "StorageManager",
    "TableInfo",
    "hash_partition",
    "load_once",
    "partition_rows",
    "range_partition",
    "stable_hash",
    "Transaction",
    "TransactionManager",
    "TransactionState",
    "TwoQ",
    "make_policy",
]
