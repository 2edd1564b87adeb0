"""Fixture tests for every simlint rule family (:mod:`repro.lint`).

Each rule gets a bad snippet that must produce exactly the documented
finding and a good snippet that must lint clean; a meta-test keeps the
committed tree itself clean so the CI gate stays green.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline

REPO = Path(__file__).resolve().parents[1]


def run_lint(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)], root=str(tmp_path))


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# DET: determinism
# ---------------------------------------------------------------------------
def test_det001_wall_clock(tmp_path):
    findings = run_lint(tmp_path, """\
        import time

        def now():
            return time.time()
        """)
    assert rules_of(findings) == ["DET001"]
    assert findings[0].line == 4


def test_det001_clean_virtual_time(tmp_path):
    findings = run_lint(tmp_path, """\
        def now(sim):
            return sim.now
        """)
    assert findings == []


def test_det001_import_alias_resolved(tmp_path):
    findings = run_lint(tmp_path, """\
        from time import monotonic as mt

        def now():
            return mt()
        """)
    assert rules_of(findings) == ["DET001"]


def test_det002_global_rng(tmp_path):
    findings = run_lint(tmp_path, """\
        import random

        def jitter():
            return random.random()
        """)
    assert rules_of(findings) == ["DET002"]


def test_det002_unseeded_instance(tmp_path):
    findings = run_lint(tmp_path, """\
        import random

        def make_rng():
            return random.Random()
        """)
    assert rules_of(findings) == ["DET002"]


def test_det002_clean_seeded_instance(tmp_path):
    findings = run_lint(tmp_path, """\
        import random

        def make_rng(seed):
            return random.Random(seed)
        """)
    assert findings == []


def test_det003_os_entropy(tmp_path):
    findings = run_lint(tmp_path, """\
        import os
        import uuid

        def token():
            return os.urandom(8), uuid.uuid4()
        """)
    assert rules_of(findings) == ["DET003", "DET003"]


def test_det004_id_in_sort_key(tmp_path):
    findings = run_lint(tmp_path, """\
        def order(pages):
            return sorted(pages, key=lambda p: id(p))
        """)
    assert rules_of(findings) == ["DET004"]


def test_det004_clean_stable_key(tmp_path):
    findings = run_lint(tmp_path, """\
        def order(pages):
            return sorted(pages, key=lambda p: p.page_id)
        """)
    assert findings == []


def test_det005_set_iteration(tmp_path):
    findings = run_lint(tmp_path, """\
        def walk(a, b):
            waiting = {a, b}
            for item in waiting:
                print(item)
        """)
    assert rules_of(findings) == ["DET005"]


def test_det005_clean_sorted_set(tmp_path):
    findings = run_lint(tmp_path, """\
        def walk(a, b):
            waiting = {a, b}
            for item in sorted(waiting):
                print(item)
        """)
    assert findings == []


def run_lint_in(tmp_path, subdir, source):
    """Lint a snippet placed under *subdir* (DET006 is path-scoped)."""
    (tmp_path / subdir).mkdir(parents=True, exist_ok=True)
    return run_lint(tmp_path, source, name=f"{subdir}/mod.py")


def test_det006_anonymous_seed_in_harness(tmp_path):
    findings = run_lint_in(tmp_path, "harness", """\
        import random

        def cell(i):
            return random.Random(42), random.Random(i)
        """)
    assert rules_of(findings) == ["DET006", "DET006"]


def test_det006_applies_under_workloads_too(tmp_path):
    findings = run_lint_in(tmp_path, "repro/workloads/tpch", """\
        import random

        def params():
            return random.Random(0)
        """)
    assert rules_of(findings) == ["DET006"]


def test_det006_clean_named_seed_constant(tmp_path):
    findings = run_lint_in(tmp_path, "harness", """\
        import random

        FIG_QUERY_SEED = 1
        CLIENT_SEED_BASE = 100

        def cells(scale, i):
            return (
                random.Random(FIG_QUERY_SEED),
                random.Random(CLIENT_SEED_BASE + i),
                random.Random(scale.seed + i),
            )
        """)
    assert findings == []


def test_det006_clean_seed_parameter(tmp_path):
    findings = run_lint_in(tmp_path, "workloads", """\
        import random

        def run(seed):
            seed_rng = random.Random(seed)
            return random.Random(seed_rng.randrange(2**31))
        """)
    assert findings == []


def test_det006_silent_outside_experiment_dirs(tmp_path):
    findings = run_lint(tmp_path, """\
        import random

        def anywhere():
            return random.Random(42)
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# YLD: cooperative scheduling
# ---------------------------------------------------------------------------
def test_yld001_dropped_primitive(tmp_path):
    findings = run_lint(tmp_path, """\
        def proc(sim):
            sim.timeout(5)
            yield sim.timeout(1)
        """)
    assert rules_of(findings) == ["YLD001"]
    assert findings[0].line == 2


def test_yld001_clean_yielded(tmp_path):
    findings = run_lint(tmp_path, """\
        def proc(sim):
            yield sim.timeout(5)
        """)
    assert findings == []


def test_yld001_dropped_generator_call(tmp_path):
    findings = run_lint(tmp_path, """\
        def _work():
            yield 1

        def proc():
            _work()
            yield None
        """)
    assert rules_of(findings) == ["YLD001"]
    assert findings[0].line == 5


def test_yld001_clean_yield_from(tmp_path):
    findings = run_lint(tmp_path, """\
        def _work():
            yield 1

        def proc():
            yield from _work()
        """)
    assert findings == []


def test_yld001_ambiguous_name_not_flagged(tmp_path):
    # `insert` names both a generator and a plain method somewhere; an
    # untyped obj.insert() call site must not be guessed at.
    findings = run_lint(tmp_path, """\
        class Wal:
            def insert(self, row):
                yield row

        class Page:
            def insert(self, row):
                self.rows.append(row)

        def apply(page, row):
            page.insert(row)
        """)
    assert findings == []


def test_yld001_common_method_not_flagged(tmp_path):
    # A generator named `write` must not make file-handle writes look
    # like dropped generators.
    findings = run_lint(tmp_path, """\
        class Disk:
            def write(self, block):
                yield block

        def dump(fh):
            fh.write("hello")
        """)
    assert findings == []


def test_yld002_unreachable_private_generator(tmp_path):
    findings = run_lint(tmp_path, """\
        def _orphan():
            yield 1
        """)
    assert rules_of(findings) == ["YLD002"]
    assert findings[0].line == 1


def test_yld002_public_generator_exempt(tmp_path):
    # Public generators are API surface: tests and client code outside
    # the linted tree reference them.
    findings = run_lint(tmp_path, """\
        def fetch_rows():
            yield 1
        """)
    assert findings == []


def test_yld002_referenced_generator_clean(tmp_path):
    findings = run_lint(tmp_path, """\
        def _work():
            yield 1

        def proc():
            yield from _work()
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# RES: resource pairing
# ---------------------------------------------------------------------------
def test_res001_release_outside_finally(tmp_path):
    findings = run_lint(tmp_path, """\
        def proc(lock):
            yield lock.acquire()
            do_work()
            lock.release()
        """)
    assert rules_of(findings) == ["RES001"]
    assert findings[0].line == 2


def test_res001_missing_release(tmp_path):
    findings = run_lint(tmp_path, """\
        def proc(lock):
            yield lock.acquire()
            do_work()
        """)
    assert rules_of(findings) == ["RES001"]


def test_res001_clean_try_finally(tmp_path):
    findings = run_lint(tmp_path, """\
        def proc(lock):
            yield lock.acquire()
            try:
                do_work()
            finally:
                lock.release()
        """)
    assert findings == []


def test_res001_clean_enclosing_try(tmp_path):
    findings = run_lint(tmp_path, """\
        def proc(lock):
            try:
                yield lock.acquire()
                do_work()
            finally:
                lock.release_if_held()
        """)
    assert findings == []


def test_res001_clean_context_manager(tmp_path):
    findings = run_lint(tmp_path, """\
        def proc(lock):
            with lock.acquire():
                do_work()
        """)
    assert findings == []


def test_res002_pin_without_unpin(tmp_path):
    findings = run_lint(tmp_path, """\
        def fetch(pool, fid, block):
            page = yield from pool.get_page(fid, block, pin=True)
            return page.rows
        """)
    assert rules_of(findings) == ["RES002"]
    assert findings[0].line == 2


def test_res002_clean_unpin_in_finally(tmp_path):
    findings = run_lint(tmp_path, """\
        def fetch(pool, fid, block):
            page = yield from pool.get_page(fid, block, pin=True)
            try:
                return page.rows
            finally:
                pool.unpin(fid, block)
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# TRC: trace-schema conformance
# ---------------------------------------------------------------------------
def test_trc001_unregistered_name(tmp_path):
    findings = run_lint(tmp_path, """\
        def emit(tracer):
            tracer.event("packet.dispatched", packet=1, query=1,
                         engine="scan", op="TableScan")
        """)
    assert rules_of(findings) == ["TRC001"]


def test_trc001_unregistered_family_suffix(tmp_path):
    findings = run_lint(tmp_path, """\
        def emit(tracer):
            tracer.osp("circularstart", packet=1, table="t")
        """)
    assert rules_of(findings) == ["TRC001"]


def test_trc001_clean_registered(tmp_path):
    findings = run_lint(tmp_path, """\
        def emit(tracer):
            tracer.event("query.abort", query=3, reason="deadline")
            tracer.osp("circular_start", packet=1, table="t")
        """)
    assert findings == []


def test_trc002_dynamic_name(tmp_path):
    findings = run_lint(tmp_path, """\
        def emit(tracer, name):
            tracer.event(name, query=3)
        """)
    assert rules_of(findings) == ["TRC002"]


def test_trc002_suppressible(tmp_path):
    findings = run_lint(tmp_path, """\
        def emit(tracer, name):
            tracer.event(name, query=3)  # simlint: disable=TRC002
        """)
    assert findings == []


def test_trc003_missing_required_field(tmp_path):
    findings = run_lint(tmp_path, """\
        def emit(tracer):
            tracer.event("query.abort", query=3)
        """)
    assert rules_of(findings) == ["TRC003"]
    assert "reason" in findings[0].message


def test_trc003_kwargs_forwarding_skipped(tmp_path):
    findings = run_lint(tmp_path, """\
        def emit(tracer, **fields):
            tracer.event("query.abort", **fields)
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# Suppressions, parse errors, baseline
# ---------------------------------------------------------------------------
def test_suppression_wildcard(tmp_path):
    findings = run_lint(tmp_path, """\
        import time

        def now():
            return time.time()  # simlint: disable=*
        """)
    assert findings == []


def test_suppression_other_rule_does_not_hide(tmp_path):
    findings = run_lint(tmp_path, """\
        import time

        def now():
            return time.time()  # simlint: disable=DET002
        """)
    assert rules_of(findings) == ["DET001"]


def test_parse_error_is_a_finding(tmp_path):
    findings = run_lint(tmp_path, "def broken(:\n")
    assert rules_of(findings) == ["E001"]


def test_baseline_round_trip(tmp_path):
    findings = run_lint(tmp_path, """\
        import time

        def now():
            return time.time()
        """)
    assert len(findings) == 1
    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, str(baseline_path))
    baseline = load_baseline(str(baseline_path))

    new, grandfathered, stale = apply_baseline(findings, baseline)
    assert new == [] and len(grandfathered) == 1 and stale == []

    # After the code is fixed the entry goes stale, not silently absorbed.
    new, grandfathered, stale = apply_baseline([], baseline)
    assert new == [] and grandfathered == [] and len(stale) == 1


# ---------------------------------------------------------------------------
# Fast-path idioms (kernel now-queue, channel fast path, bench timing)
# ---------------------------------------------------------------------------
def test_now_queue_merge_loop_lints_clean(tmp_path):
    # The kernel's two-front merge loop: deque peeks, lazy-deletion
    # skips, and in-place `entry[5] = False` marking must not trip any
    # DET rule -- list comparison of (time, priority, seq) prefixes is
    # deterministic.
    findings = run_lint(tmp_path, """\
        import heapq
        from collections import deque

        def run(heap, nowq):
            while True:
                while heap and not heap[0][5]:
                    heapq.heappop(heap)
                while nowq and not nowq[0][5]:
                    nowq.popleft()
                if nowq and (not heap or nowq[0] < heap[0]):
                    entry = nowq.popleft()
                elif heap:
                    entry = heapq.heappop(heap)
                else:
                    break
                entry[5] = False
                entry[3](*entry[4])
        """)
    assert findings == []


def test_channel_fast_path_lints_clean(tmp_path):
    # Fast-path early returns around the balancer: plain attribute and
    # deque traffic, no findings.
    findings = run_lint(tmp_path, """\
        class Channel:
            def try_put(self, item):
                if self._used + 1 <= self.capacity:
                    self._items.append(item)
                    self._used += 1
                    if self._getters:
                        self._balance()
                    return True
                return False
        """)
    assert findings == []


def test_bench_timing_suppressions_are_honoured(tmp_path):
    # repro.harness.__main__ is the one module allowed to read the host
    # clock (its "[... wall]" lines); the same idiom in a fixture must
    # lint clean only with the explicit suppression.
    findings = run_lint(tmp_path, """\
        import time

        def sample(fn):
            start = time.perf_counter()  # simlint: disable=DET001
            fn()
            return time.perf_counter() - start  # simlint: disable=DET001
        """)
    assert findings == []

    findings = run_lint(tmp_path, """\
        import time

        def sample(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start
        """)
    assert rules_of(findings) == ["DET001", "DET001"]


# ---------------------------------------------------------------------------
# The committed tree and the CLI
# ---------------------------------------------------------------------------
def test_repo_tree_is_lint_clean():
    findings = lint_paths([str(REPO / "src")], root=str(REPO))
    assert findings == [], "\n".join(f.render() for f in findings)


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True,
    )


def test_cli_json_report(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\ndef f():\n    return time.time()\n")
    proc = _run_cli(["--format", "json", str(bad)], cwd=tmp_path)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert [f["rule"] for f in doc["findings"]] == ["DET001"]


def test_cli_exit_zero_on_repo_tree():
    proc = _run_cli(["src"], cwd=REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_rule_catalogue():
    proc = _run_cli(["--rules"], cwd=REPO)
    assert proc.returncode == 0
    for rule in ("DET001", "YLD001", "RES001", "TRC001"):
        assert rule in proc.stdout
