"""The micro-engines: one per relational operator (Figure 5b)."""

from repro.engine.engines.aggregates import AggEngine, GroupByEngine
from repro.engine.engines.iscan import IScanEngine
from repro.engine.engines.joins import (
    HashJoinEngine,
    MergeJoinEngine,
    NLJoinEngine,
)
from repro.engine.engines.misc import (
    DistinctEngine,
    FilterEngine,
    LimitEngine,
    ProbeEngine,
    ProjectEngine,
    UpdateEngine,
)
from repro.engine.engines.scan import FScanEngine
from repro.engine.engines.sort import SortEngine

__all__ = [
    "AggEngine",
    "DistinctEngine",
    "FilterEngine",
    "FScanEngine",
    "GroupByEngine",
    "HashJoinEngine",
    "IScanEngine",
    "MergeJoinEngine",
    "LimitEngine",
    "NLJoinEngine",
    "ProbeEngine",
    "ProjectEngine",
    "SortEngine",
    "UpdateEngine",
]


def build_engines(engine, workers: int):
    """Instantiate the full micro-engine set for a QPipeEngine."""
    return {
        "fscan": FScanEngine("fscan", engine, workers=workers * 4),
        "filter": FilterEngine("filter", engine, workers=workers),
        "iscan": IScanEngine("iscan", engine, workers=workers),
        "sort": SortEngine("sort", engine, workers=workers),
        "agg": AggEngine("agg", engine, workers=workers),
        "groupby": GroupByEngine("groupby", engine, workers=workers),
        "hashjoin": HashJoinEngine("hashjoin", engine, workers=workers),
        "mergejoin": MergeJoinEngine("mergejoin", engine, workers=workers),
        "nljoin": NLJoinEngine("nljoin", engine, workers=workers),
        "semijoin": ProbeEngine("semijoin", engine, workers=workers),
        "antijoin": ProbeEngine("antijoin", engine, workers=workers),
        "outerjoin": ProbeEngine("outerjoin", engine, workers=workers),
        "limit": LimitEngine("limit", engine, workers=workers),
        "distinct": DistinctEngine("distinct", engine, workers=workers),
        "project": ProjectEngine("project", engine, workers=workers),
        "update": UpdateEngine("update", engine, workers=workers),
    }
