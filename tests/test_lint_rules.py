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
# TRC: required trace fields
# ---------------------------------------------------------------------------
def test_trc001_clean_registered(tmp_path):
    findings = run_lint(tmp_path, """\
        def emit(tracer):
            tracer.event("query.abort", query=3, reason="deadline")
            tracer.osp("circular_start", packet=1, table="t")
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
# Suppressions, baseline
# ---------------------------------------------------------------------------
def test_suppression_wildcard(tmp_path):
    findings = run_lint(tmp_path, """\
        def order(pages):
            return sorted(pages, key=lambda p: id(p))  # simlint: disable=*
        """)
    assert findings == []


def test_suppression_other_rule_does_not_hide(tmp_path):
    findings = run_lint(tmp_path, """\
        def order(pages):
            return sorted(pages, key=lambda p: id(p))  # simlint: disable=DET005
        """)
    assert rules_of(findings) == ["DET004"]


def test_baseline_round_trip(tmp_path):
    findings = run_lint(tmp_path, """\
        def order(pages):
            return sorted(pages, key=lambda p: id(p))
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
# Fast-path idioms (kernel now-queue, channel fast path)
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


# ---------------------------------------------------------------------------
# The committed tree and the CLI
# ---------------------------------------------------------------------------
def test_repo_tree_is_lint_clean(src_lint):
    _modules, findings = src_lint
    assert findings == [], "\n".join(f.render() for f in findings)


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True,
    )


BAD = "def order(pages):\n    return sorted(pages, key=lambda p: id(p))\n"


def test_cli_json_report(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD)
    proc = _run_cli(["--format", "json", str(bad)], cwd=tmp_path)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert [f["rule"] for f in doc["findings"]] == ["DET004"]


def test_cli_exit_zero_on_repo_tree(tmp_path):
    # The whole tree is linted once per session (test_repo_tree_is_lint_
    # clean); the CLI's exit status is checked on one small clean file.
    good = tmp_path / "good.py"
    good.write_text("def order(pages):\n    return sorted(pages)\n")
    proc = _run_cli([str(good)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_rule_catalogue():
    proc = _run_cli(["--rules"], cwd=REPO)
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == [
        "DET004", "DET005", "DET006", "IPR001", "IPR003", "IPR203",
        "TRC003",
    ]
