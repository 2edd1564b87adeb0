"""Join bodies that are not hash kernels: the merge-join cursors and the
cross product.

The cursors are coroutines over the *caller's* pull coroutine -- an
operator's ``next_batch`` on the tree engines, a tuple buffer's ``get``
on the packet engine -- so they wait on whatever the caller waits on
and never name the simulator.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, List, Optional, Tuple


def cross(lrows: List[tuple], rrows: List[tuple]) -> List[tuple]:
    """Every ``lrow + rrow``, left-major: a merge join's matched
    duplicate groups, a nested-loop join's batch against a page."""
    return [lrow + rrow for lrow in lrows for rrow in rrows]


class MergeCursor:
    """Batch-buffered reader over one sorted merge-join input.

    ``pull()`` is a coroutine returning the next non-empty batch, or
    None when the input (or, for a segmented input, the segment) ends.
    """

    def __init__(self, pull: Callable[[], Generator], row_key: Callable):
        self.pull = pull
        self.row_key = row_key
        self.rows: deque = deque()
        self.ended = False

    def ensure_row(self) -> Generator:
        """Coroutine: have a row buffered, or be ``ended``."""
        while not self.rows and not self.ended:
            batch = yield from self.pull()
            if batch is None:
                self.ended = True
            else:
                self.rows.extend(batch)

    def take_group(self, value) -> Generator:
        """Coroutine: pop the leading rows whose key equals *value*,
        pulling on while the group may continue in the next batch."""
        rows, row_key = self.rows, self.row_key
        group: List[tuple] = []
        while True:
            while rows and row_key(rows[0]) == value:
                group.append(rows.popleft())
            if rows:
                return group
            yield from self.ensure_row()
            if not rows:
                return group


def next_match(
    left: MergeCursor, right: MergeCursor
) -> Generator[object, object, Optional[Tuple[List[tuple], List[tuple]]]]:
    """Coroutine: advance both cursors to their next common key and
    return its two duplicate groups; None once either side has ended."""
    while True:
        yield from left.ensure_row()
        yield from right.ensure_row()
        if not left.rows or not right.rows:
            return None
        lkey = left.row_key(left.rows[0])
        rkey = right.row_key(right.rows[0])
        if lkey < rkey:
            left.rows.popleft()
        elif rkey < lkey:
            right.rows.popleft()
        else:
            lgroup = yield from left.take_group(lkey)
            rgroup = yield from right.take_group(rkey)
            return lgroup, rgroup
