"""External-sort bodies: the comparison charge and the k-way run merge.

Sim-free.  An engine sorts its runs in memory, spills them, and then
drives a :class:`RunMerge` -- read the page it ``wants``, ``supply`` the
rows, ``take`` what is mergeable; ``pull`` is that loop over the
caller's own page-read coroutine -- paying for page reads and rows in
its own schedule: the tree engines stream a batch at a time and charge
per batch, the packet engine materialises the result and charges once.
"""

from __future__ import annotations

import heapq
from math import inf, log2
from typing import Callable, Generator, List, Optional, Sequence, Tuple


def sort_comparisons(n: int) -> int:
    """The ``n log n`` comparisons an in-memory sort of *n* rows is
    charged."""
    return int(n * max(1.0, log2(max(2, n))))


class _Neg:
    """Ordering inverter for descending sort keys in heap merges."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return other.value == self.value


class RunMerge:
    """K-way merge of sorted runs read a page at a time.

    Equal keys come out in run order (and in page order within a run),
    so merging the stably sorted slices of a stream is the stable sort
    of the stream.  The merge never reads ahead of the row asked for: a
    run's next page is wanted only once every row of its current page
    has been taken *and* another row is needed.
    """

    def __init__(
        self, run_pages: Sequence[int], key: Callable, descending: bool
    ):
        """*run_pages*: pages per run, in run order; *key* and
        *descending*: what every run was sorted by."""
        # Heap rank of a row: its sort key, inverted for a descending
        # sort (a tuple key as a whole, like list.sort(reverse=True)).
        self._rank = (lambda row: _Neg(key(row))) if descending else key
        self._pages = list(run_pages)
        self._block = [0] * len(self._pages)  # next page of each run
        self._rows: List[Sequence[tuple]] = [()] * len(self._pages)
        self._heap: List[tuple] = []  # (rank, run, index into its page)
        #: Runs that need a page before the next row can be chosen,
        #: lowest first: all of them to begin with, then at most one.
        self._starved = [
            run for run, pages in enumerate(self._pages) if pages
        ]

    def wants(self) -> Optional[Tuple[int, int]]:
        """``(run, block)`` of the page to :meth:`supply` before
        :meth:`take` can yield another row, or None."""
        if not self._starved:
            return None
        run = self._starved[0]
        return run, self._block[run]

    def supply(self, rows: Sequence[tuple]) -> None:
        """The rows of the page :meth:`wants` named."""
        run = self._starved[0]
        self._block[run] += 1
        if rows:
            self._rows[run] = rows
            heapq.heappush(self._heap, (self._rank(rows[0]), run, 0))
        if rows or self._block[run] == self._pages[run]:
            del self._starved[0]

    def take(self, limit: int) -> List[tuple]:
        """Up to *limit* next rows; fewer when a page is wanted first
        (none at all once the runs are exhausted)."""
        out: List[tuple] = []
        heap, rank = self._heap, self._rank
        while heap and len(out) < limit and not self._starved:
            _rank, run, at = heap[0]
            rows = self._rows[run]
            out.append(rows[at])
            at += 1
            if at < len(rows):
                heapq.heapreplace(heap, (rank(rows[at]), run, at))
            else:
                heapq.heappop(heap)
                if self._block[run] < self._pages[run]:
                    self._starved.append(run)
        return out

    def pull(
        self, read_page: Callable, runs: Sequence, limit: float = inf
    ) -> Generator:
        """Coroutine: up to *limit* next rows (fewer only when the runs
        are exhausted), reading each wanted page through the caller's
        ``read_page(runs[run], block)`` coroutine."""
        out: List[tuple] = []
        while len(out) < limit:
            want = self.wants()
            if want is not None:
                run, block = want
                page = yield from read_page(runs[run], block)
                self.supply(page.rows())
                continue
            rows = self.take(limit - len(out))
            if not rows:
                break
            out += rows
        return out
