"""Buffer replacement policies.

Section 2.1 of the paper surveys the policies a buffer manager may use --
LRU and its descendants LRU-K [22] and 2Q [18], and the self-tuning ARC
[21].  The degree of cross-query page sharing the *conventional* engines
achieve in Figures 8 and 12 is a function of exactly this policy, so the
pool accepts any of them:

* the Baseline system models BerkeleyDB's pool (plain LRU), and
* DBMS X models the commercial system whose "buffer pool manager achieves
  better sharing" (ARC by default).

A policy tracks the set of resident keys and answers one question: *which
resident, evictable key should go next?*

Hot-path audit (DESIGN.md section 10): every ``on_hit`` here is O(1).
The ``victim`` scans in LRU/MRU/2Q/ARC start at the eviction-order front
and only walk past *pinned* entries, so they are O(pinned prefix), not
O(resident); LRU-K is the one policy whose backward-K-distance ranking
has no natural queue order, so it keeps a lazy min-heap of ``(rank,
insertion, version, key)`` entries -- stale versions are skipped on pop,
making ``victim`` amortised O(log n) instead of a full resident scan.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from typing import Callable, Dict, Hashable, List, Optional, Tuple

Key = Hashable
Evictable = Callable[[Key], bool]


class ReplacementPolicy:
    """Interface: the buffer pool calls these hooks."""

    name = "abstract"

    def on_insert(self, key: Key) -> None:
        """A key became resident (after a miss)."""
        raise NotImplementedError

    def on_hit(self, key: Key) -> None:
        """A resident key was referenced."""
        raise NotImplementedError

    def on_remove(self, key: Key) -> None:
        """A key left the pool (evicted or invalidated)."""
        raise NotImplementedError

    def victim(self, evictable: Evictable) -> Optional[Key]:
        """The preferred eviction victim among resident evictable keys."""
        raise NotImplementedError


class LRU(ReplacementPolicy):
    """Least-recently-used (BerkeleyDB's default; the Baseline's pool)."""

    name = "lru"

    def __init__(self):
        self._order: OrderedDict = OrderedDict()

    def on_insert(self, key):
        self._order[key] = True
        self._order.move_to_end(key)

    def on_hit(self, key):
        if key in self._order:
            self._order.move_to_end(key)

    def on_remove(self, key):
        self._order.pop(key, None)

    def victim(self, evictable):
        for key in self._order:
            if evictable(key):
                return key
        return None


class MRU(ReplacementPolicy):
    """Most-recently-used: optimal for repeated larger-than-memory scans."""

    name = "mru"

    def __init__(self):
        self._order: OrderedDict = OrderedDict()

    def on_insert(self, key):
        self._order[key] = True
        self._order.move_to_end(key)

    def on_hit(self, key):
        if key in self._order:
            self._order.move_to_end(key)

    def on_remove(self, key):
        self._order.pop(key, None)

    def victim(self, evictable):
        for key in reversed(self._order):
            if evictable(key):
                return key
        return None


class Clock(ReplacementPolicy):
    """The clock (second-chance) approximation of LRU."""

    name = "clock"

    def __init__(self):
        self._ring: list = []
        self._ref: Dict[Key, bool] = {}
        self._hand = 0

    def on_insert(self, key):
        self._ring.append(key)
        self._ref[key] = True

    def on_hit(self, key):
        if key in self._ref:
            self._ref[key] = True

    def on_remove(self, key):
        if key in self._ref:
            del self._ref[key]
            idx = self._ring.index(key)
            self._ring.pop(idx)
            if idx < self._hand:
                self._hand -= 1
            if self._ring:
                self._hand %= len(self._ring)
            else:
                self._hand = 0

    def victim(self, evictable):
        if not self._ring:
            return None
        # Two sweeps: the first clears reference bits, the second must find
        # someone (unless everything is pinned).
        for _sweep in range(2 * len(self._ring)):
            key = self._ring[self._hand]
            if not evictable(key):
                self._hand = (self._hand + 1) % len(self._ring)
                continue
            if self._ref[key]:
                self._ref[key] = False
                self._hand = (self._hand + 1) % len(self._ring)
                continue
            return key
        return None


class LRUK(ReplacementPolicy):
    """LRU-K [O'Neil et al., SIGMOD 1993]; evicts the maximum backward
    K-distance page.  Pages with fewer than K references are preferred
    victims (infinite backward distance), which is what makes LRU-K
    scan-resistant.
    """

    name = "lru-k"

    def __init__(self, k: int = 2):
        if k < 1:
            raise ValueError(f"k must be >= 1: {k}")
        self.k = k
        self._history: Dict[Key, deque] = {}
        #: key -> insertion sequence number of its current residency; the
        #: heap tie-break on this number reproduces the resident-dict
        #: iteration order the old linear scan used, so victims (and
        #: therefore pool contents and traces) are unchanged.
        self._resident: Dict[Key, int] = {}
        self._version: Dict[Key, int] = {}
        #: Lazy min-heap of (rank, insertion, version, key); an entry is
        #: current iff both insertion and version match the dicts.
        self._heap: List[Tuple] = []
        self._tick = 0
        self._ins_seq = 0

    def _touch(self, key):
        self._tick += 1
        hist = self._history.setdefault(key, deque(maxlen=self.k))
        hist.append(self._tick)
        ins = self._resident.get(key)
        if ins is not None:
            version = self._version.get(key, 0) + 1
            self._version[key] = version
            heapq.heappush(self._heap, (self._kth_ref(key), ins, version, key))
            if len(self._heap) > 4 * len(self._resident) + 64:
                self._rebuild()

    def _rebuild(self):
        self._heap = [
            (self._kth_ref(key), ins, self._version.get(key, 0), key)
            for key, ins in self._resident.items()
        ]
        heapq.heapify(self._heap)

    def on_insert(self, key):
        self._ins_seq += 1
        self._resident[key] = self._ins_seq
        self._touch(key)

    def on_hit(self, key):
        self._touch(key)

    def on_remove(self, key):
        self._resident.pop(key, None)
        # History survives eviction (the "retained information" of the paper).

    def _kth_ref(self, key) -> float:
        hist = self._history.get(key)
        if hist is None or len(hist) < self.k:
            return float("-inf")  # infinite backward distance
        return hist[0]

    def victim(self, evictable):
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        pinned: List[Tuple] = []
        found = None
        while heap:
            rank, ins, version, key = heap[0]
            if (
                self._resident.get(key) != ins
                or self._version.get(key, 0) != version
            ):
                heappop(heap)  # stale: key evicted or re-referenced since
                continue
            entry = heappop(heap)
            if evictable(key):
                found = entry
                break
            pinned.append(entry)
        # Unevictable entries (and the winner, in case the pool declines
        # to evict it) go back for the next call.
        for entry in pinned:
            heappush(heap, entry)
        if found is None:
            return None
        heappush(heap, found)
        return found[3]


class TwoQ(ReplacementPolicy):
    """2Q [Johnson & Shasha, VLDB 1994], full version.

    New pages enter the FIFO queue *A1in*; on eviction from A1in their
    identity is remembered in the ghost queue *A1out*.  A page re-read
    while remembered in A1out is promoted to the main LRU queue *Am*.
    Single-touch scan pages therefore wash through A1in without ever
    polluting Am.
    """

    name = "2q"
    #: A1in's share of the pool (the paper's recommended 25 %).
    KIN_FRACTION = 0.25

    def __init__(self, capacity: int, kout_fraction: float = 0.5):
        if capacity < 2:
            raise ValueError(f"2Q needs capacity >= 2: {capacity}")
        self.capacity = capacity
        self.kin = max(1, int(capacity * self.KIN_FRACTION))
        self.kout = max(1, int(capacity * kout_fraction))
        self._a1in: OrderedDict = OrderedDict()
        self._a1out: OrderedDict = OrderedDict()  # ghosts (not resident)
        self._am: OrderedDict = OrderedDict()

    def on_insert(self, key):
        if key in self._a1out:
            del self._a1out[key]
            self._am[key] = True
            self._am.move_to_end(key)
        else:
            self._a1in[key] = True
            self._a1in.move_to_end(key)

    def on_hit(self, key):
        if key in self._am:
            self._am.move_to_end(key)
        # Hits in A1in deliberately do not reorder (2Q's correlated-
        # reference rule).

    def on_remove(self, key):
        if key in self._a1in:
            del self._a1in[key]
            self._a1out[key] = True
            while len(self._a1out) > self.kout:
                self._a1out.popitem(last=False)
        else:
            self._am.pop(key, None)

    def victim(self, evictable):
        if len(self._a1in) > self.kin or not self._am:
            for key in self._a1in:
                if evictable(key):
                    return key
        for key in self._am:
            if evictable(key):
                return key
        for key in self._a1in:
            if evictable(key):
                return key
        return None


class ARC(ReplacementPolicy):
    """ARC [Megiddo & Modha, FAST 2003].

    Two resident LRU lists -- T1 (seen once recently) and T2 (seen at
    least twice) -- plus ghost lists B1/B2, with the target size ``p`` of
    T1 adapted on every ghost hit.  Self-tuning and scan-resistant; this
    is the pool configuration we give "DBMS X".
    """

    name = "arc"

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"ARC needs capacity >= 1: {capacity}")
        self.c = capacity
        self.p = 0.0
        self._t1: OrderedDict = OrderedDict()
        self._t2: OrderedDict = OrderedDict()
        self._b1: OrderedDict = OrderedDict()  # ghosts
        self._b2: OrderedDict = OrderedDict()  # ghosts

    def on_insert(self, key):
        if key in self._b1:
            # Ghost hit in B1: favour recency; promote straight to T2.
            self.p = min(self.c, self.p + max(1.0, len(self._b2) / max(1, len(self._b1))))
            del self._b1[key]
            self._t2[key] = True
            self._t2.move_to_end(key)
        elif key in self._b2:
            # Ghost hit in B2: favour frequency.
            self.p = max(0.0, self.p - max(1.0, len(self._b1) / max(1, len(self._b2))))
            del self._b2[key]
            self._t2[key] = True
            self._t2.move_to_end(key)
        else:
            self._t1[key] = True
            self._t1.move_to_end(key)
            while len(self._b1) > self.c:
                self._b1.popitem(last=False)
        while len(self._b2) > self.c:
            self._b2.popitem(last=False)

    def on_hit(self, key):
        if key in self._t1:
            del self._t1[key]
            self._t2[key] = True
            self._t2.move_to_end(key)
        elif key in self._t2:
            self._t2.move_to_end(key)

    def on_remove(self, key):
        if key in self._t1:
            del self._t1[key]
            self._b1[key] = True
        elif key in self._t2:
            del self._t2[key]
            self._b2[key] = True

    def victim(self, evictable):
        # REPLACE: evict from T1 when it exceeds the target p, else T2.
        prefer_t1 = len(self._t1) > 0 and len(self._t1) > self.p
        first, second = (self._t1, self._t2) if prefer_t1 else (self._t2, self._t1)
        for queue in (first, second):
            for key in queue:
                if evictable(key):
                    return key
        return None


def make_policy(name: str, capacity: int) -> ReplacementPolicy:
    """Factory by policy name: lru | mru | clock | lru-k | 2q | arc."""
    lowered = name.lower()
    if lowered == "lru":
        return LRU()
    if lowered == "mru":
        return MRU()
    if lowered == "clock":
        return Clock()
    if lowered in ("lru-k", "lruk", "lru2"):
        return LRUK(k=2)
    if lowered in ("2q", "twoq"):
        return TwoQ(capacity)
    if lowered == "arc":
        return ARC(capacity)
    raise ValueError(f"unknown replacement policy: {name!r}")
