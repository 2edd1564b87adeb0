"""One benchmark run of one workload: warm-up, timed repeats, the
determinism check, the oracle, and (``trace``) the per-layer passes.

A repeat builds a fresh loaded system (timed: ``setup_s``), collects
garbage, runs the calibration kernel, runs the workload's whole client
population to completion (timed: ``host_s``) and runs the kernel again.
Repeats continue until ``seconds`` of wall time are used.

Every repeat does identical work, so interference can only add time:
a run reports its *fastest* repeat over its *fastest* kernel probe
(perf/NOISE.md shows this estimator beside the median it replaced).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perf import layers
from perf.calibration import CAL_REF_S, DISTURBED, calibrate, kernel_sha256
from perf.metrics import (
    EXACT_END_TO_END,
    PER_LAYER,
    percentile,
    quartiles,
    supported_percentile,
)
from perf.workloads import WORKLOADS, makespan, run_clients

MIN_REPEATS = 3
#: Builds per repeat: a build takes 10-150 ms, so its fastest sample
#: needs many more tries than the seconds-long timed section does.
BUILDS_PER_REPEAT = 3


@dataclass
class Repeat:
    #: Every build of this repeat, in order (the warm-up's first is cold).
    builds: List[float]
    run_raw: float
    cal_before: float
    cal_after: float
    #: Deterministic readings: the exact end-to-end metrics, the public
    #: counters and one digest over every operation's rows.
    exact: Dict[str, float]
    errors: List[str]

    @property
    def setup_raw(self) -> float:
        return min(self.builds)

    @property
    def disturbed(self) -> bool:
        """Another tenant had the core: the two probes disagree."""
        mean = (self.cal_before + self.cal_after) / 2.0
        return abs(self.cal_before - self.cal_after) > DISTURBED * mean


@dataclass
class Result:
    """What one run reports: the contract's four keys plus the detail
    the comparison tools read."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    detail: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _digest(logs) -> str:
    h = hashlib.sha256()
    for log in logs:
        for done in log:
            h.update(repr((done.kind, done.rows, done.error)).encode())
    return h.hexdigest()


def exact_readings(system, logs) -> Dict[str, float]:
    flat = [d for log in logs for d in log]
    responses = [d.response for d in flat]
    out = {
        "virt_makespan_s": makespan(logs),
        "virt_resp_p50_s": percentile(responses, 50),
        "virt_resp_p75_s": percentile(responses, 75),
        "disk_blocks_read": sum(
            host.disk.stats.blocks_read for host, _, _ in system.shards),
        "rows_digest": _digest(logs),
    }
    out.update(layers.counters(system, flat))
    return out


def run_repeat(workload, clients, instrument=None):
    """One repeat.  *instrument* (trace passes) wraps the timed section:
    it is called with the built system and returns a context manager."""
    gc.collect()
    builds = []
    for _ in range(BUILDS_PER_REPEAT):
        start = time.perf_counter()
        system = workload.build()
        builds.append(time.perf_counter() - start)
    gc.collect()
    cal_before = calibrate()
    start = time.perf_counter()
    if instrument is None:
        logs = run_clients(system, clients)
    else:
        with instrument(system):
            logs = run_clients(system, clients)
    run_raw = time.perf_counter() - start
    cal_after = calibrate()
    errors = [f"client {c} op {i}: {d.error}"
              for c, log in enumerate(logs) for i, d in enumerate(log)
              if d.error]
    repeat = Repeat(builds, run_raw, cal_before, cal_after,
                    exact_readings(system, logs), errors)
    return repeat, system, logs


def _timed_repeats(workload, clients, seconds: float,
                   repeats: Optional[int]):
    """Timed repeats until *seconds* are used (or exactly *repeats*);
    returns them plus the last one's system and logs."""
    done: List[Repeat] = []
    began = time.perf_counter()
    while True:
        repeat, system, logs = run_repeat(workload, clients)
        done.append(repeat)
        elapsed = time.perf_counter() - began
        if repeats is not None:
            more = len(done) < repeats
        else:
            more = (len(done) < MIN_REPEATS
                    or elapsed + elapsed / len(done) <= seconds)
        if not more:
            return done, system, logs


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 repeats: Optional[int] = None) -> Result:
    workload = WORKLOADS[name]
    clients = workload.clients(seed)
    problems: List[str] = []

    warmup, _, _ = run_repeat(workload, clients)
    # A trace run spends about two thirds of its time in the passes.
    budget = seconds / 3.0 if trace else seconds
    timed, system, logs = _timed_repeats(workload, clients, budget, repeats)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, repeat in enumerate(timed):
        for key, value in warmup.exact.items():
            if repeat.exact[key] != value:
                problems.append(
                    f"{key} differs between repeats: warm-up {value!r}, "
                    f"repeat {i} {repeat.exact[key]!r}")
                break
    n = sum(len(log) for log in logs)
    if supported_percentile(n) < 75:
        problems.append(f"n={n} operations cannot support a p75")

    # Calibrated seconds: what a section would have cost on the host the
    # benchmark landed on, judged by the run's fastest kernel probe.
    probe = min(min(r.cal_before, r.cal_after) for r in [warmup] + timed)
    scale = CAL_REF_S / probe
    host = [r.run_raw * scale for r in timed]
    # The warm-up's timed section does the same work; only its build is
    # cold (datagen), so it may be the fastest section but not the fastest
    # build.
    host_s = min(host + [warmup.run_raw * scale])
    setup_s = min(r.setup_raw for r in timed) * scale
    last = timed[-1]

    wrong, readings = workload.check(clients, logs, system, trace)
    failures = last.errors + wrong
    problems.extend(failures)

    if trace:
        metrics = {"osp.blocks_saved_ratio": 0.0, "shard.speedup_vs_1h": 0.0,
                   **readings, **last.exact}
        for what, instrument in (("profile pass", layers.ProfilePass()),
                                 ("tracer pass", layers.TracerPass())):
            repeat, _, _ = run_repeat(workload, clients, instrument)
            # Instrumentation must not change what the simulator did.
            problems.extend(
                f"{what} changed {key}: {repeat.exact[key]!r} != {value!r}"
                for key, value in last.exact.items()
                if repeat.exact[key] != value)
            metrics.update(instrument.metrics(host_s, repeat.run_raw * scale))
        q1, median, q3 = quartiles(host)
        metrics.update({
            "sql.plan_us": (1e6 * system.sql_plan_s * scale
                            / system.sql_statements
                            if system.sql_statements else 0.0),
            "workloads.datagen_cold_s": max(
                0.0, warmup.builds[0] * scale - setup_s),
            "perf.calibration_s": probe,
            "perf.raw_wall_s": host_s / scale,
            "perf.repeat_iqr": (q3 - q1) / median,
            "perf.disturbed_repeats": sum(r.disturbed for r in timed),
            "perf.warmup_excess": warmup.run_raw * scale / host_s - 1.0,
        })
        metrics = {name: float(metrics[name]) for name, _, _ in PER_LAYER}
    else:
        metrics = {
            "host_s": host_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            **{k: float(last.exact[k]) for k in EXACT_END_TO_END},
        }

    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "operations": n,
        "kernel_sha256": kernel_sha256(),
        "cal_ref_s": CAL_REF_S,
        "host_s_quartiles": quartiles(host),
        "setup_s_quartiles": quartiles([r.setup_raw * scale for r in timed]),
        "raw_wall_s": host_s / scale,
        "raw_wall_median_s": statistics.median(r.run_raw for r in timed),
        "exact": last.exact,
        "repeats": [
            {"setup_raw": r.setup_raw, "run_raw": r.run_raw,
             "cal_before": r.cal_before, "cal_after": r.cal_after,
             "host_s": r.run_raw * scale, "disturbed": r.disturbed}
            for r in [warmup] + timed
        ],
    }
    return Result(
        correct=not problems,
        attempted=n,
        failed=min(n, len(failures)),
        metrics=metrics,
        detail=detail,
        problems=problems,
    )
