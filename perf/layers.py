"""Per-layer readings, all taken from outside ``src/repro``: exact
counters from the public ``*Stats`` objects, a ``cProfile`` pass bucketed
by package directory, and a pass with ``repro.obs.Tracer`` attached.
"""

from __future__ import annotations

import cProfile
import os
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from repro.obs import InvariantChecker, QueryTrace, Tracer

from perf.metrics import LAYERS, percentile

_PERF_DIR = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------------
# Exact counters
# ---------------------------------------------------------------------------
def counters(system, flat) -> Dict[str, float]:
    """Counters of one finished run (*flat*: every ``Done`` of it)."""
    hosts = [host for host, _, _ in system.shards]
    pools = [sm.pool.stats for _, sm, _ in system.shards]
    disks = [host.disk.stats for host in hosts]
    packet_engines = [e for _, _, e in system.shards if hasattr(e, "osp_stats")]
    packets = sum(m.packets_served + m.packets_shared
                  for e in packet_engines for m in e.engines.values())
    attaches = sum(e.osp_stats.total_attaches for e in packet_engines)
    seeks = sum(d.seeks for d in disks)
    sequential = sum(d.sequential_hits for d in disks)
    accesses = sum(p.accesses for p in pools)
    net = system.network.stats if system.network is not None else None
    shard = system.executor.stats if system.executor is not None else None
    tm, recovery = system.transactions, system.recovery
    out = {
        "sim.processes": system.sim.process_count,
        "hw.disk_blocks_written": sum(d.blocks_written for d in disks),
        "hw.disk_seeks": seeks,
        "hw.disk_seq_ratio": _ratio(sequential, sequential + seeks),
        "hw.disk_util": sum(h.disk.utilization() for h in hosts) / len(hosts),
        "hw.cpu_util": sum(h.cpu.utilization() / h.cpu.cores
                           for h in hosts) / len(hosts),
        "hw.net_frames": net.frames if net else 0,
        "hw.net_bytes": net.bytes_on_wire if net else 0,
        "storage.pool_accesses": accesses,
        "storage.pool_hit_ratio": _ratio(
            sum(p.hits + p.coalesced for p in pools), accesses),
        "storage.pool_evictions": sum(p.evictions for p in pools),
        "storage.pool_coalesced": sum(p.coalesced for p in pools),
        "storage.wal_records": len(tm.wal.records) if tm else 0,
        "engine.packets": packets,
        "osp.attaches": attaches,
        "osp.attach_ratio": _ratio(attaches, packets),
        "osp.shared_page_deliveries": sum(
            e.osp_stats.shared_page_deliveries for e in packet_engines),
        "osp.deadlocks_resolved": sum(
            e.osp_stats.deadlocks_resolved for e in packet_engines),
        "osp.scan_detaches": sum(
            e.osp_stats.scan_detaches for e in packet_engines),
        "sql.statements": system.sql_statements,
        "shard.rows_shipped": shard.rows_shipped if shard else 0,
        "shard.bytes_shipped": shard.bytes_shipped if shard else 0,
        "lineage.records": sum(
            len(log.records) for log in recovery.logs.values())
        if recovery else 0,
        "lineage.log_blocks": recovery.device.stats.blocks_written
        if recovery else 0,
    }
    for metric, kind, p in (
        ("storage.lookup_p50_s", "lookup", 50),
        ("storage.lookup_p95_s", "lookup", 95),
        ("storage.txn_p50_s", "txn", 50),
        ("storage.txn_p95_s", "txn", 95),
        ("engine.dml_p50_s", "dml", 50),
        ("engine.dml_p95_s", "dml", 95),
        ("lineage.analyst_p50_s", "analyst", 50),
    ):
        responses = [d.response for d in flat if d.kind == kind]
        out[metric] = percentile(responses, p) if responses else 0.0
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# Profile pass
# ---------------------------------------------------------------------------
def layer_of_file(path: str) -> Optional[str]:
    """The layer a source file belongs to; None for code that belongs to
    whoever called it (builtins, stdlib, generated source)."""
    path = path.replace(os.sep, "/")
    at = path.rfind("/repro/")
    if at >= 0:
        package, _, rest = path[at + len("/repro/"):].partition("/")
        return package if rest and package in LAYERS else "other"
    if path.startswith(_PERF_DIR):
        return "other"
    return None


def attribute(stats: dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Bucket a ``cProfile`` stats table into ``(self seconds, primitive
    calls)`` per layer.

    A function in ``src/repro/<layer>/`` is charged to that layer.  Time
    in builtins, stdlib and generated code is charged to the layers that
    called it, split by the profile's caller table; what nobody in
    ``repro`` called is ``other``.  Calls count repro functions only.
    """
    seconds = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func, stack=()) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = layer_of_file(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = {} if func in stack else stats[func][4]
            weights = {c: v[2] for c, v in callers.items() if c in stats}
            if sum(weights.values()) <= 0:
                weights = {c: v[0] for c, v in callers.items() if c in stats}
            total = sum(weights.values())
            if total <= 0:
                result = {"other": 1.0}
            else:
                result = {}
                for caller, weight in weights.items():
                    for name, share in shares(caller, stack + (func,)).items():
                        result[name] = result.get(name, 0.0) + share * weight / total
        memo[func] = result
        return result

    for func, (primitive, _, self_time, _, _) in stats.items():
        own = layer_of_file(func[0])
        if own is not None:
            seconds[own] += self_time
            calls[own] += primitive
        else:
            for layer, share in shares(func).items():
                seconds[layer] += self_time * share
    return seconds, calls


class ProfilePass:
    """``cProfile`` around one timed section."""

    def __init__(self):
        self.profile = cProfile.Profile()

    @contextmanager
    def __call__(self, system):
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()

    def metrics(self, host_s: float, pass_host_s: float) -> Dict[str, float]:
        self.profile.create_stats()
        stats = self.profile.stats
        seconds, calls = attribute(stats)
        total = sum(seconds.values())
        events = sum(
            primitive for (path, _, name), (primitive, *_) in stats.items()
            if name == "schedule" and layer_of_file(path) == "sim")
        out = {f"{layer}.self_share": seconds[layer] / total
               for layer in LAYERS}
        out.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
        out["sim.events"] = events
        out["sim.host_us_per_event"] = (
            1e6 * host_s * out["sim.self_share"] / events if events else 0.0)
        out["perf.profile_overhead"] = pass_host_s / host_s - 1.0
        return out


# ---------------------------------------------------------------------------
# Tracer pass
# ---------------------------------------------------------------------------
class TracerPass:
    """``repro.obs.Tracer`` attached for one timed section."""

    def __init__(self):
        self.tracer: Optional[Tracer] = None

    @contextmanager
    def __call__(self, system):
        self.tracer = Tracer(system.sim)
        yield

    def metrics(self, host_s: float, pass_host_s: float) -> Dict[str, float]:
        events = self.tracer.events
        by_query: Dict[int, list] = {}
        for event in events:
            if event["type"].startswith("packet."):
                by_query.setdefault(event["query"], []).append(event)
        queue_wait = service = 0.0
        for query, packet_events in by_query.items():
            breakdown = QueryTrace(packet_events, query).wait_breakdown()
            for slot in breakdown.values():
                queue_wait += slot["queue_wait"]
                service += slot["service"]
        return {
            "obs.events": len(events),
            "obs.tracer_overhead": pass_host_s / host_s - 1.0,
            "obs.invariant_violations": len(InvariantChecker(events).check()),
            "engine.queue_wait_s": queue_wait,
            "engine.service_s": service,
        }
