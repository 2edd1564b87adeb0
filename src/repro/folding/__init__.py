"""Generalized sharing: fold similar concurrent queries.

Where OSP shares *identical* in-progress work (section 4.3), this layer
folds queries that are merely *similar*: a fold group on the table's
circular scan filters each page once with the union of the members'
predicates, predicate-subsumed scans take per-query residual filters of
the survivors, and concurrent ``Aggregate(TableScan)`` queries merge
into a single aggregation pass producing per-query projections.  See
DESIGN.md §15.
"""

from repro.folding.coordinator import FoldCoordinator, FoldGroup
from repro.folding.stats import FoldStats

__all__ = ["FoldCoordinator", "FoldGroup", "FoldStats"]
