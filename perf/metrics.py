"""The metric glossary: every name the benchmark emits, with its unit,
direction and (end-to-end only) regression bound.

``BENCHMARK.json`` declares the same names and perf/test_selfcheck.py
fails when the two disagree.  Meanings are in perf/README.md.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: Layers of ``src/repro`` a profile is bucketed into; anything else
#: (other packages, the benchmark's own clients) is ``other``.
LAYERS = ("sim", "hw", "storage", "relational", "engine", "osp", "baseline",
          "pushexec", "sql", "shard", "lineage", "workloads", "obs", "other")

#: name, unit, better, bound.  Virtual seconds are the simulated clock,
#: ``s`` are calibrated host seconds.  ``failed_share`` is reported by
#: every run as ``failed / attempted`` instead: it is always 0, and the
#: manifest may only hold metrics that never are.  Each bound is at least
#: three times the widest seed-to-seed inter-quartile spread the sandbox
#: showed (perf/NOISE.md); 0.25 is the most a manifest may state.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("host_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("virt_makespan_s", "virt_s", "lower", 0.05),
    ("virt_resp_p50_s", "virt_s", "lower", 0.05),
    ("virt_resp_p75_s", "virt_s", "lower", 0.05),
    ("disk_blocks_read", "blocks", "lower", 0.15),
]

#: The four that a deterministic simulator must repeat exactly.
EXACT_END_TO_END = ("virt_makespan_s", "virt_resp_p50_s", "virt_resp_p75_s",
                    "disk_blocks_read")

#: Exact counters read from public stats objects after every run.
COUNTERS: List[Tuple[str, str, str]] = [
    ("sim.processes", "count", "lower"),
    ("hw.disk_blocks_written", "blocks", "lower"),
    ("hw.disk_seeks", "count", "lower"),
    ("hw.disk_seq_ratio", "ratio", "higher"),
    ("hw.disk_util", "ratio", "higher"),
    ("hw.cpu_util", "ratio", "lower"),
    ("hw.net_frames", "count", "lower"),
    ("hw.net_bytes", "bytes", "lower"),
    ("storage.pool_accesses", "count", "lower"),
    ("storage.pool_hit_ratio", "ratio", "higher"),
    ("storage.pool_evictions", "count", "lower"),
    ("storage.pool_coalesced", "count", "higher"),
    ("storage.wal_records", "count", "lower"),
    ("engine.packets", "count", "lower"),
    ("osp.attaches", "count", "higher"),
    ("osp.attach_ratio", "ratio", "higher"),
    ("osp.shared_page_deliveries", "count", "higher"),
    ("osp.deadlocks_resolved", "count", "lower"),
    ("osp.scan_detaches", "count", "lower"),
    ("sql.statements", "count", "lower"),
    ("shard.rows_shipped", "rows", "lower"),
    ("shard.bytes_shipped", "bytes", "lower"),
    ("lineage.records", "count", "lower"),
    ("lineage.log_blocks", "blocks", "lower"),
    ("storage.lookup_p50_s", "virt_s", "lower"),
    ("storage.lookup_p95_s", "virt_s", "lower"),
    ("storage.txn_p50_s", "virt_s", "lower"),
    ("storage.txn_p95_s", "virt_s", "lower"),
    ("engine.dml_p50_s", "virt_s", "lower"),
    ("engine.dml_p95_s", "virt_s", "lower"),
    ("lineage.analyst_p50_s", "virt_s", "lower"),
]

PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{layer}.self_share", "share", "lower") for layer in LAYERS]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [
        ("sim.events", "count", "lower"),
        ("sim.host_us_per_event", "us", "lower"),
        ("sql.plan_us", "us", "lower"),
        ("perf.profile_overhead", "ratio", "lower"),
        ("obs.events", "count", "lower"),
        ("obs.tracer_overhead", "ratio", "lower"),
        ("obs.invariant_violations", "count", "lower"),
        ("engine.queue_wait_s", "virt_s", "lower"),
        ("engine.service_s", "virt_s", "lower"),
    ]
    + COUNTERS
    + [
        ("osp.blocks_saved_ratio", "ratio", "higher"),
        ("shard.speedup_vs_1h", "ratio", "higher"),
        ("workloads.datagen_cold_s", "s", "lower"),
        ("perf.calibration_s", "s", "lower"),
        ("perf.raw_wall_s", "s", "lower"),
        ("perf.repeat_iqr", "ratio", "lower"),
        ("perf.disturbed_repeats", "count", "lower"),
        ("perf.warmup_excess", "ratio", "lower"),
    ]
)


def is_exact(name: str) -> bool:
    """True for readings a deterministic simulator repeats exactly; the
    rest are host-time readings."""
    return not (name in ("host_s", "setup_s", "peak_rss_mb",
                         "sim.host_us_per_event", "sql.plan_us",
                         "obs.tracer_overhead", "workloads.datagen_cold_s")
                or name.startswith("perf.") or name.endswith(".self_share"))


UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
UNITS["failed_share"] = "fraction"


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def supported_percentile(n: int, candidates=(50, 75, 90, 95, 99)) -> int:
    """The highest percentile with at least ten samples beyond it."""
    best = 0
    for p in candidates:
        if n * (100 - p) / 100.0 >= 10:
            best = p
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
