"""The window-of-opportunity (WoP) model of section 3.2.

Figure 4a classifies relational operations into four overlap types by the
cost saving a newly-arrived identical operation (Q2) can realise as a
function of the in-progress operation's (Q1) progress:

* ``LINEAR`` -- Q2 gains the *remaining* fraction (unordered scans).
* ``STEP``   -- Q2 gains 100% until the first output tuple, then 0
  (group-by, join probe/merge phases, nested-loop join).
* ``FULL``   -- Q2 gains 100% for the whole lifetime (single aggregates,
  sort phase, hash-join build, RID-list creation).
* ``SPIKE``  -- Q2 gains 100% only at exactly t=0 (ordered scans).

Figure 4b adds two enhancement functions: *buffering* (a ring of recent
output widens step/spike windows) and *materialisation* (retaining the
result converts spike to linear at reduced slope).

This module is the analytic model; the micro-engines realise the same
windows operationally.  The WoP microbenchmark (benchmarks fig4) checks
the measured gains against :func:`expected_gain`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OverlapClass(enum.Enum):
    LINEAR = "linear"
    STEP = "step"
    FULL = "full"
    SPIKE = "spike"


#: Default classification of each operation's phases (section 3.2 text).
OPERATOR_PHASES = {
    "table_scan_unordered": [("scan", OverlapClass.LINEAR)],
    "table_scan_ordered": [("scan", OverlapClass.SPIKE)],
    "clustered_index_scan_unordered": [("scan", OverlapClass.LINEAR)],
    "clustered_index_scan_ordered": [("scan", OverlapClass.SPIKE)],
    "unclustered_index_scan": [
        ("rid_list", OverlapClass.FULL),
        ("fetch", OverlapClass.LINEAR),
    ],
    "sort": [
        ("sort", OverlapClass.FULL),
        ("emit", OverlapClass.LINEAR),
    ],
    "single_aggregate": [("aggregate", OverlapClass.FULL)],
    "group_by": [("group", OverlapClass.STEP)],
    "nested_loop_join": [("join", OverlapClass.STEP)],
    "merge_join": [("merge", OverlapClass.STEP)],
    "hash_join": [
        ("build", OverlapClass.FULL),
        ("probe", OverlapClass.STEP),
    ],
}


@dataclass(frozen=True)
class WoPProfile:
    """The effective window after enhancement functions are applied.

    Args:
        overlap: the base overlap class.
        buffer_fraction: fraction of Q1's total output the replay ring can
            hold (buffering enhancement; widens step/spike).
        materialized: whether results are retained for re-emission
            (materialisation enhancement; converts spike/step to linear).
    """

    overlap: OverlapClass
    buffer_fraction: float = 0.0
    materialized: bool = False


def expected_gain(profile: WoPProfile, progress: float) -> float:
    """Q2's expected cost saving (0..1) when it arrives at *progress*.

    *progress* is Q1's completed fraction in [0, 1].  This reproduces the
    shapes of Figure 4a/4b analytically.
    """
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1]: {progress}")
    overlap = profile.overlap
    if profile.materialized and overlap in (
        OverlapClass.SPIKE,
        OverlapClass.STEP,
    ):
        # Materialisation converts to linear.
        return 1.0 - progress

    if overlap is OverlapClass.FULL:
        return 1.0 if progress < 1.0 else 0.0
    if overlap is OverlapClass.LINEAR:
        return 1.0 - progress
    if overlap is OverlapClass.STEP:
        # The step falls when the first output appears; buffering delays
        # that point by the buffered fraction.
        threshold = profile.buffer_fraction
        return 1.0 if progress <= threshold else 0.0
    # SPIKE: only an exactly-simultaneous arrival can share, unless
    # buffering holds the prefix produced so far.
    threshold = profile.buffer_fraction
    return 1.0 if progress <= threshold else 0.0
