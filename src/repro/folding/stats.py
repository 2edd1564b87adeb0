"""Counters for the generalized-sharing (query folding) layer.

Mirrors :class:`repro.osp.stats.OspStats` so the harness can report both
sharing layers side by side: OSP shares *identical* work, folding shares
*similar* work (predicate subsumption + merged aggregation).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class FoldStats:
    """What the fold coordinator did during a run."""

    #: Fold groups opened (one wide filter on a circular scan each; the
    #: query that opens one is its first member, not counted below).
    groups: int = 0
    #: Members folded into an open group, by kind ("scan" / "agg").
    members: Counter = field(default_factory=Counter)
    #: Candidates turned away, by reason ("window-closed", "not-subsumed",
    #: "ring-dropped", "buffer-full", "cost", ...).
    rejected: Counter = field(default_factory=Counter)
    #: Table pages the folded members did not have to read themselves.
    pages_saved: int = 0
    #: Wide-scan survivor rows run through per-member residual filters.
    residual_rows: int = 0
    #: Merged-aggregation accumulator banks created.
    banks: int = 0

    @property
    def folded(self) -> int:
        return sum(self.members.values())

    @property
    def candidates(self) -> int:
        return self.folded + sum(self.rejected.values())

    def fold_rate(self) -> float:
        """Fraction of fold candidates that actually folded."""
        candidates = self.candidates
        return self.folded / candidates if candidates else 0.0

    def summary(self) -> str:
        members = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.members.items())
        ) or "none"
        rejected = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(self.rejected.items())
        ) or "none"
        return (
            f"fold groups: {self.groups}  members: {members}  "
            f"rejected: {rejected}\n"
            f"fold rate: {self.fold_rate():.2f}  "
            f"pages saved: {self.pages_saved}  "
            f"residual rows: {self.residual_rows}  "
            f"banks: {self.banks}"
        )
