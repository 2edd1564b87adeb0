"""The sim-free operator bodies against references that are obviously
right: the k-way run merge against ``sorted``, the merge-join cursors
against a nested loop, RID runs against a per-RID loop.

Both operator libraries drive these bodies (the tree engines'
``SortOp`` / ``MergeJoinOp`` / ``IndexScanOp``, the packet engine's
sort, merge-join and index-scan micro-engines), so what is checked here
is checked for all three engines; what each engine *schedules* around
them is pinned in ``tests/test_operator_schedule.py``.
"""

from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.joins import MergeCursor, cross, next_match
from repro.relational.schema import Schema
from repro.relational.sort import RunMerge, sort_comparisons
from repro.storage.page import RID, Page, rid_runs

SCHEMA = Schema.of("a:float", "b:int", "seq:int")

#: Values that compare equal across types and signs: a merge that broke
#: ties by anything but run order would reorder them visibly.
nasty = st.sampled_from([0.0, -0.0, 1, 1.0, True, 2, 2.0, -1])


def finish(coroutine):
    """Run a coroutine that waits on nothing; returns its value."""
    try:
        while True:
            next(coroutine)
    except StopIteration as stop:
        return stop.value


def paged(rows, sizes):
    """*rows* cut into pages of the given (cycled) lengths."""
    pages, at, i = [], 0, 0
    while at < len(rows):
        size = sizes[i % len(sizes)]
        pages.append(rows[at:at + size])
        at += size
        i += 1
    return pages


@st.composite
def spilled_sorts(draw):
    """``(key columns, descending, runs)``: a stream cut into slices,
    each stably sorted and paged unevenly -- what a spill leaves."""
    keys = draw(st.sampled_from([["a"], ["a", "b"], ["b", "a"]]))
    descending = draw(st.booleans())
    values = draw(st.lists(st.tuples(nasty, st.integers(0, 2)), max_size=60))
    stream = [(a, b, seq) for seq, (a, b) in enumerate(values)]
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=5)))
    key = SCHEMA.key_of(keys)
    runs = []
    for lo, hi in zip([0] + cuts, cuts + [len(stream)]):
        run = sorted(stream[lo:hi], key=key, reverse=descending)
        sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
        runs.append(paged(run, sizes))
    return keys, descending, runs


@settings(max_examples=300, deadline=None)
@given(case=spilled_sorts(), takes=st.lists(st.integers(1, 9), min_size=1))
def test_run_merge_is_the_stable_sort_and_never_reads_ahead(case, takes):
    keys, descending, runs = case
    key = SCHEMA.key_of(keys)
    merge = RunMerge([len(pages) for pages in runs], key, descending)
    run_of = {row[2]: i for i, pages in enumerate(runs) for row in chain(*pages)}
    pages_read = [0] * len(runs)
    supplied = [0] * len(runs)
    taken = [0] * len(runs)
    out, i = [], 0
    while True:
        want = merge.wants()
        if want is not None:
            run, block = want
            # Only a run whose every supplied row is out wants a page,
            # and it wants its pages in order.
            assert taken[run] == supplied[run], (run, block)
            assert block == pages_read[run]
            pages_read[run] += 1
            supplied[run] += len(runs[run][block])
            merge.supply(runs[run][block])
            continue
        rows = merge.take(takes[i % len(takes)])
        i += 1
        if not rows:
            break
        assert len(rows) <= takes[(i - 1) % len(takes)]
        for row in rows:
            taken[run_of[row[2]]] += 1
        out += rows
    everything = list(chain(*chain(*runs)))
    want_rows = sorted(everything, key=key, reverse=descending)
    # seq is unique, so equal rows are the same row: order AND identity.
    assert out == want_rows
    assert pages_read == [len(pages) for pages in runs]
    assert [type(row[0]) for row in out] == [type(row[0]) for row in want_rows]


class _Page(list):
    def rows(self):
        return self


@settings(max_examples=100, deadline=None)
@given(case=spilled_sorts(), limit=st.integers(1, 40))
def test_run_merge_pull_reads_only_the_pages_its_rows_need(case, limit):
    keys, descending, runs = case
    key = SCHEMA.key_of(keys)
    merge = RunMerge([len(pages) for pages in runs], key, descending)
    reads = []

    def read_page(run, block):
        reads.append((next(i for i, r in enumerate(runs) if r is run), block))
        return _Page(run[block])
        yield  # a coroutine that waits on nothing

    got = finish(merge.pull(read_page, runs, limit))
    everything = sorted(chain(*chain(*runs)), key=key, reverse=descending)
    assert got == everything[:limit]
    # Page 0 of every run, then one page per page used up: a page is
    # read only when the row after its predecessor's last is asked for.
    first = [(i, 0) for i, pages in enumerate(runs) if pages]
    assert reads[:len(first)] == first
    for run, block in reads[len(first):]:
        assert all(row in got for row in runs[run][block - 1])
    rest = finish(merge.pull(read_page, runs))
    assert got + rest == everything


def test_sort_comparisons_is_the_n_log_n_the_engines_charged():
    assert [sort_comparisons(n) for n in (0, 1, 2, 3, 1024)] == [
        0, 1, 2, 4, 10240,
    ]


# ---------------------------------------------------------------------------
# Merge-join cursors
# ---------------------------------------------------------------------------
def cursor_over(batches, column=0):
    feed = iter(batches)

    def pull():
        return next(feed, None)
        yield

    return MergeCursor(pull, lambda row: row[column])


def joined(left, right):
    out = []
    while True:
        match = finish(next_match(left, right))
        if match is None:
            return out
        out += cross(*match)


sorted_side = st.lists(st.integers(0, 6), max_size=25).map(sorted)
batch_sizes = st.lists(st.integers(1, 5), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(lkeys=sorted_side, rkeys=sorted_side, lsizes=batch_sizes,
       rsizes=batch_sizes)
def test_next_match_is_the_nested_loop_whatever_the_batching(
    lkeys, rkeys, lsizes, rsizes
):
    lrows = [(k, f"l{i}") for i, k in enumerate(lkeys)]
    rrows = [(k, f"r{i}") for i, k in enumerate(rkeys)]
    got = joined(
        cursor_over(paged(lrows, lsizes)),
        cursor_over(paged(rrows, rsizes)),
    )
    assert got == [l + r for l in lrows for r in rrows if l[0] == r[0]]


@settings(max_examples=200, deadline=None)
@given(lkeys=sorted_side, rkeys=sorted_side, lsizes=batch_sizes,
       rsizes=batch_sizes, data=st.data())
def test_a_pull_that_ends_mid_group_ends_the_pass_not_the_join(
    lkeys, rkeys, lsizes, rsizes, data
):
    """Section 4.3.2's segmented input: the left pull reports an end
    between two segments -- even in the middle of a duplicate group --
    and the join runs one pass per segment against a restarted right
    input.  Each pass is the nested loop over its segment."""
    lrows = [(k, f"l{i}") for i, k in enumerate(lkeys)]
    rrows = [(k, f"r{i}") for i, k in enumerate(rkeys)]
    cut = data.draw(st.integers(0, len(lrows)))
    segments = [lrows[:cut], lrows[cut:]]
    feed = iter(
        paged(segments[0], lsizes) + [None]
        + paged(segments[1], lsizes)
    )

    def pull():
        return next(feed, None)
        yield

    left = MergeCursor(pull, lambda row: row[0])
    for segment in segments:
        left.ended = False
        right = cursor_over(paged(rrows, rsizes))
        assert joined(left, right) == [
            l + r for l in segment for r in rrows if l[0] == r[0]
        ]
        # What a pass leaves of its segment is not carried into the
        # next (the engine abandons it): read on to the segment's end.
        while left.rows or not left.ended:
            left.rows.clear()
            finish(left.ensure_row())


# ---------------------------------------------------------------------------
# RID runs
# ---------------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    rids=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=30),
    dead=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=8),
    data=st.data(),
)
def test_rid_runs_visit_pages_like_the_per_rid_loop(rids, dead, data):
    pages = []
    for block in range(4):
        page = Page(capacity=6)
        for slot in range(6):
            page.insert((block, slot))
        pages.append(page)
    for block, slot in dead:
        pages[block].delete(slot)
    rids = [RID(block, slot) for block, slot in rids]
    start = data.draw(st.integers(0, len(rids)))
    stop = data.draw(st.integers(start, len(rids)))

    want, i = [], start
    while i < stop:  # the loop both engines used to write out
        block = rids[i].block_no
        group = []
        while i < stop and rids[i].block_no == block:
            row = pages[block].get(rids[i].slot)
            if row is not None:
                group.append(row)
            i += 1
        want.append((block, group, i))
    got = [
        (block, pages[block].live(slots), end)
        for block, slots, end in rid_runs(rids, start, stop)
    ]
    assert got == want
