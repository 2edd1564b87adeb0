"""Sharing statistics: what OSP actually saved, per micro-engine."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class OspStats:
    """Counters the harness reads after each experiment."""

    #: satellite attaches per micro-engine name
    attaches: Counter = field(default_factory=Counter)
    #: circular-scan page deliveries that avoided a dedicated read
    shared_page_deliveries: int = 0
    #: sort re-emissions from materialised results (section 4.3, sort WoP)
    sort_reemissions: int = 0
    #: order-sensitive scans shared via the two-pass strategy (4.3.2)
    mj_splits: int = 0
    #: order-sensitive split opportunities rejected by the cost model
    mj_splits_rejected: int = 0
    #: pipeline deadlocks resolved by materialising a buffer (4.3.3)
    deadlocks_resolved: int = 0
    #: stalled consumers cut loose from a shared scan (section 3.3)
    scan_detaches: int = 0

    def record_attach(self, engine_name: str, _packet=None) -> None:
        self.attaches[engine_name] += 1

    @property
    def total_attaches(self) -> int:
        return sum(self.attaches.values())

    def summary(self) -> str:
        lines = ["OSP sharing summary:"]
        for name, count in sorted(self.attaches.items()):
            lines.append(f"  attaches[{name}] = {count}")
        lines.append(f"  shared page deliveries = {self.shared_page_deliveries}")
        lines.append(f"  sort re-emissions      = {self.sort_reemissions}")
        lines.append(f"  merge-join splits      = {self.mj_splits}")
        lines.append(f"  deadlocks resolved     = {self.deadlocks_resolved}")
        lines.append(f"  scan detaches          = {self.scan_detaches}")
        return "\n".join(lines)
