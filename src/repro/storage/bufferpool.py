"""The buffer pool: frames, pins, in-flight read coalescing, eviction.

Two details matter for reproducing the paper's sharing behaviour:

* **In-flight coalescing.**  When a page miss is already being read on
  behalf of another query, later requesters wait on the same disk read
  instead of issuing a duplicate.  This is how the *conventional* systems
  share pages when queries arrive in lockstep (the interarrival-0 points
  of Figure 8 where Baseline matches QPipe).
* **Page-level interface.**  The pool never knows who is asking or why --
  exactly the limitation (section 2.1) that prevents conventional engines
  from coordinating scans, and that QPipe's OSP bypasses at a higher layer.

A frame records *residency*, not content: which blocks are in the pool,
their pins, the replacement policy's view and the scan rings.  Every
access returns the block from the :class:`BlockStore` once its cost is
paid, so a block has one home, and a write that swaps a private copy
into the store (:meth:`BlockStore.writable`) is what the next read sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple

from repro.faults.errors import FaultError
from repro.hw.disk import Disk
from repro.sim import Event, SimulationError, Simulator, Timeout
from repro.sim.errors import Interrupted
from repro.storage.file import BlockStore
from repro.storage.replacement import ReplacementPolicy, make_policy

Key = Tuple[int, int]  # (file_id, block_no)

#: Bounded retry for *transient* injected faults (disk read errors,
#: transient page corruption): up to ``MAX_RETRIES`` extra attempts with
#: exponential virtual-time backoff from ``RETRY_BACKOFF`` seconds.
#: Permanent faults and exhausted retries surface the typed error to the
#: caller.
MAX_RETRIES = 3
RETRY_BACKOFF = 0.002


class BufferPoolFull(SimulationError):
    """Every frame is pinned; there is nothing to evict."""


@dataclass
class BufferPoolStats:
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.coalesced

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        if total == 0:
            return 0.0
        return (self.hits + self.coalesced) / total


@dataclass
class BufferPool:
    """A fixed number of page frames over one :class:`BlockStore` + disk.

    A frame is a resident block's key; its content stays in the store.
    """

    sim: Simulator
    disk: Disk
    store: BlockStore
    capacity: int
    policy: Optional[ReplacementPolicy] = None
    policy_name: str = "lru"
    page_hit_cost: float = 0.00002
    #: Frames reserved for sequential-scan pages, as a fraction of the
    #: pool.  Storage managers give scans a small ring so one big scan
    #: cannot flood the pool; scan pages recycle within this ring and a
    #: follower query finds only the most recent ring-window resident.
    #: Setting ``use_scan_ring=False`` hands scan pages to the policy
    #: instead -- the right configuration for inherently scan-resistant
    #: policies such as ARC (the "DBMS X" pool), whose retained scan
    #: window is what gives X better page sharing than plain LRU.
    scan_ring_fraction: float = 0.125
    use_scan_ring: bool = True
    #: When True, ring pages are visible to *other* requesters (a shared
    #: scan window a la commercial multi-scan optimisations): a scan
    #: arriving within the window rides the leader.  BerkeleyDB-style
    #: pools keep rings private (False); the "DBMS X" pool shares its
    #: window, which is exactly the timing-sensitive pool sharing the
    #: paper credits it with.
    scan_window_shared: bool = False
    stats: BufferPoolStats = field(default_factory=BufferPoolStats)

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"pool capacity must be >= 1: {self.capacity}")
        if self.policy is None:
            self.policy = make_policy(self.policy_name, self.capacity)
        #: The resident blocks, in the order they became resident (a
        #: dict for that order; the values are unused).
        self._frames: Dict[Key, None] = {}
        #: The store's block lists by file id: a resident block is read
        #: from its one home there, with no call on the hit path.
        self._blocks = self.store._files
        self._pins: Dict[Key, int] = {}
        #: Pages being read right now.  The value is the event the
        #: piggybackers wait on, created by the first of them: a read
        #: nobody joins (None) costs no kernel entry to announce.
        self._in_flight: Dict[Key, Optional[Event]] = {}
        from collections import OrderedDict

        self._scan_ring: "OrderedDict[Key, bool]" = OrderedDict()
        self.scan_ring_size = max(2, int(self.capacity * self.scan_ring_fraction))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains(self, file_id: int, block_no: int) -> bool:
        """Whether the page is resident (untimed; WoP checks use this)."""
        return (file_id, block_no) in self._frames

    @property
    def resident(self) -> int:
        return len(self._frames)

    def pin_count(self, file_id: int, block_no: int) -> int:
        return self._pins.get((file_id, block_no), 0)

    # ------------------------------------------------------------------
    # Timed access
    # ------------------------------------------------------------------
    def get_page(
        self, file_id: int, block_no: int, pin: bool = False,
        cold: bool = False, stream: Any = None,
    ) -> Generator:
        """Coroutine: fetch one page's payload, charging hit or miss costs.

        Returns the payload object, read from the store after the cost
        is paid, so a write during the wait is seen; with ``pin=True``
        the frame is held unevictable until :meth:`unpin`.  ``cold=True``
        marks a sequential-scan read and ``stream`` identifies the scan:
        the frame lives in that scan's *private* ring (a handful of
        recycled frames), invisible to other requesters -- so one scan can
        neither flood the pool nor leave a trailing window other scans
        ride on.
        Simultaneous requests still coalesce on the in-flight read.
        """
        key = (file_id, block_no)
        if key in self._frames:
            ring_owner = self._scan_ring.get(key)
            # A page in another scan's private ring is not in the shared
            # pool hash: for us that is a miss.
            if (
                ring_owner is None
                or ring_owner == stream
                or self.scan_window_shared
            ):
                self.stats.hits += 1
                self.sim.tracer.pool("hit", file_id, block_no)
                if ring_owner is not None and not cold:
                    # A non-scan touch promotes the page into the pool.
                    del self._scan_ring[key]
                    self.policy.on_insert(key)
                elif ring_owner is None:
                    self.policy.on_hit(key)
                if pin:
                    self._pins[key] = self._pins.get(key, 0) + 1
                    self.sim.tracer.pool("pin", file_id, block_no)
                try:
                    yield Timeout(self.sim, self.page_hit_cost)
                except Interrupted:
                    # The requester died mid-hit: give back the pin it
                    # will never release.
                    if pin:
                        self.unpin(file_id, block_no)
                    raise
                return self._blocks[file_id][block_no]

        if key in self._in_flight:
            # Someone else is already reading this page: piggyback.
            self.stats.coalesced += 1
            self.sim.tracer.pool("coalesced", file_id, block_no)
            pending = self._in_flight[key]
            if pending is None:
                pending = self._in_flight[key] = Event(self.sim)
            yield pending
            if key not in self._frames:
                # The reader was interrupted; retry from scratch.
                return (
                    yield from self.get_page(
                        file_id, block_no, pin=pin, cold=cold, stream=stream
                    )
                )
            if key not in self._scan_ring:
                self.policy.on_hit(key)
            if pin:
                self._pins[key] = self._pins.get(key, 0) + 1
                self.sim.tracer.pool("pin", file_id, block_no)
            return self._blocks[file_id][block_no]

        # Genuine miss: this process performs the read.
        self.stats.misses += 1
        self.sim.tracer.pool("miss", file_id, block_no)
        self._in_flight[key] = None
        try:
            if key not in self._frames:
                self._make_room()
            yield from self._read_with_retry(file_id, block_no)
            payload = self.store.read_block(file_id, block_no)
            self._frames[key] = None
            if cold and self.use_scan_ring:
                self._scan_ring[key] = stream
                self._trim_scan_ring()
            else:
                self._scan_ring.pop(key, None)
                self.policy.on_insert(key)
        finally:
            done = self._in_flight.pop(key)
            if done is not None:
                done.succeed()
        if pin:
            self._pins[key] = self._pins.get(key, 0) + 1
            self.sim.tracer.pool("pin", file_id, block_no)
        return payload

    def _read_with_retry(self, file_id: int, block_no: int) -> Generator:
        """Coroutine: disk read + checksum verify with bounded retry.

        Transient faults (see :class:`~repro.faults.errors.FaultError`)
        are retried up to ``MAX_RETRIES`` times with exponential backoff
        in virtual time; permanent faults and exhausted budgets re-raise.
        """
        attempt = 0
        while True:
            try:
                yield from self.disk.read(file_id, block_no)
                self.store.verify_block(file_id, block_no)
                return
            except FaultError as exc:
                attempt += 1
                retriable = exc.transient and attempt <= MAX_RETRIES
                self.sim.tracer.fault(
                    "retry" if retriable else "giveup",
                    file=file_id, block=block_no,
                    attempt=attempt, error=type(exc).__name__,
                )
                if not retriable:
                    raise
                yield self.sim.timeout(RETRY_BACKOFF * (2 ** (attempt - 1)))

    def write_page(self, file_id: int, block_no: int) -> Generator:
        """Coroutine: write-through one (already mutated) page to disk."""
        key = (file_id, block_no)
        if key not in self._frames:
            self._make_room()
            self._frames[key] = None
            self.policy.on_insert(key)
        else:
            self.policy.on_hit(key)
        yield from self.disk.write(file_id, block_no)

    def unpin(self, file_id: int, block_no: int) -> None:
        key = (file_id, block_no)
        count = self._pins.get(key, 0)
        if count <= 0:
            raise SimulationError(f"unpin of unpinned page {key}")
        if count == 1:
            del self._pins[key]
        else:
            self._pins[key] = count - 1
        self.sim.tracer.pool("unpin", file_id, block_no)

    def invalidate_file(self, file_id: int) -> None:
        """Drop all frames of a file (used when a temp file is deleted)."""
        for key in [k for k in self._frames if k[0] == file_id]:
            del self._frames[key]
            self._scan_ring.pop(key, None)
            self.policy.on_remove(key)
            # Force-release any pins before the frame goes away so traced
            # pin/unpin pairs stay balanced even on file drops.
            for _ in range(self._pins.pop(key, 0)):
                self.sim.tracer.pool("unpin", key[0], key[1])
            self.sim.tracer.pool("evict", key[0], key[1])

    # ------------------------------------------------------------------
    def _evictable(self, key: Key) -> bool:
        return self._pins.get(key, 0) == 0

    def _trim_scan_ring(self) -> None:
        """Recycle ring frames: scans never occupy more than the ring."""
        while len(self._scan_ring) > self.scan_ring_size:
            victim, _flag = self._scan_ring.popitem(last=False)
            if self._pins.get(victim, 0) == 0 and victim in self._frames:
                del self._frames[victim]
                self.stats.evictions += 1
                self.sim.tracer.pool("evict", victim[0], victim[1])

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity:
            # Ring pages go first, oldest first.
            victim = None
            for key in self._scan_ring:
                if self._evictable(key):
                    victim = key
                    break
            if victim is not None:
                del self._scan_ring[victim]
            else:
                victim = self.policy.victim(self._evictable)
                if victim is None:
                    raise BufferPoolFull(
                        f"all {self.capacity} frames pinned; cannot evict"
                    )
                self.policy.on_remove(victim)
            del self._frames[victim]
            self.stats.evictions += 1
            self.sim.tracer.pool("evict", victim[0], victim[1])
