"""Fixture tests for the interprocedural IPR passes, the baseline v2
format, the SARIF reporter, and the CLI plumbing added with them.

Includes the two mutation checks the pass exists for: deleting a
release from a designated fixture AND from a copy of a real engine
function must produce the documented finding with the right rule id and
symbol.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.rules_ipr import is_cell
from repro.lint.sarif import SARIF_VERSION, SCHEMA_URI, sarif_doc

REPO = Path(__file__).resolve().parents[1]


def run_lint(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return lint_paths([str(path)], root=str(tmp_path))


def run_lint_files(tmp_path, **sources):
    for name, source in sources.items():
        (tmp_path / f"{name}.py").write_text(textwrap.dedent(source))
    return lint_paths([str(tmp_path)], root=str(tmp_path))


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# IPR001: lock escape
# ---------------------------------------------------------------------------
def test_ipr001_unwind_between_acquire_and_try(tmp_path):
    # The acquire is followed by a try/finally, but the CFG pass sees
    # the yield between them and reports the gap it leaves.
    findings = run_lint(tmp_path, """\
        def serve(sm, sim):
            yield sm.locks.acquire("t")
            yield sim.timeout(1)
            try:
                yield 1
            finally:
                sm.locks.release("t")
        """)
    assert rules_of(findings) == ["IPR001"]
    assert findings[0].line == 2
    assert findings[0].symbol == "serve"
    assert "except" in findings[0].message


def test_ipr001_clean_idiomatic_acquire_then_try(tmp_path):
    # Plain host statements between acquire and try do not unwind.
    findings = run_lint(tmp_path, """\
        def serve(sm, packet):
            yield sm.locks.acquire("t")
            packet.phase = "scan"
            try:
                yield 1
            finally:
                sm.locks.release("t")
        """)
    assert findings == []


def test_ipr001_suppressible(tmp_path):
    findings = run_lint(tmp_path, """\
        def serve(sm, sim):
            yield sm.locks.acquire("t")  # simlint: disable=IPR001
            yield sim.timeout(1)
            try:
                yield 1
            finally:
                sm.locks.release("t")
        """)
    assert findings == []


# ---------------------------------------------------------------------------
# IPR003: temp-file escape, interprocedurally
# ---------------------------------------------------------------------------
def test_ipr003_cross_module_transfer(tmp_path):
    findings = run_lint_files(
        tmp_path,
        helpers="""\
            def make_spill(sm):
                run = sm.create_temp_file(64, label="x")
                return run
            """,
        user="""\
            from helpers import make_spill

            def consume(sm):
                run = make_spill(sm)
                yield 1
                sm.drop_temp_file(run)
            """,
    )
    assert rules_of(findings) == ["IPR003"]
    assert findings[0].path.endswith("user.py")
    assert findings[0].symbol == "consume"
    assert "make_spill" in findings[0].message
    assert "except" in findings[0].message


def test_ipr003_clean_finally_sweep(tmp_path):
    # A drop loop in a finally releases the whole kind, covering the
    # statically-possible zero-iteration path too.
    findings = run_lint_files(
        tmp_path,
        helpers="""\
            def make_spill(sm):
                run = sm.create_temp_file(64, label="x")
                return run
            """,
        user="""\
            from helpers import make_spill

            def consume(sm):
                runs = []
                try:
                    runs.append(make_spill(sm))
                    yield 1
                finally:
                    for run in runs:
                        sm.drop_temp_file(run)
            """,
    )
    assert findings == []


def test_ipr003_born_tracked_helper_is_clean(tmp_path):
    # track_temp at creation moves custody to the context's teardown
    # sweep: neither the helper nor its caller owes a release.
    findings = run_lint_files(
        tmp_path,
        helpers="""\
            def make_spill(ctx):
                run = ctx.track_temp(ctx.sm.create_temp_file(64))
                return run
            """,
        user="""\
            from helpers import make_spill

            def consume(ctx):
                run = make_spill(ctx)
                yield 1
            """,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# IPR203: cell purity
# ---------------------------------------------------------------------------
def test_ipr203_host_io_in_cell(tmp_path):
    findings = run_lint(tmp_path, """\
        def cell(fn):
            return fn

        @cell
        def leaky_cell(spec):
            with open("/tmp/x") as fh:
                return fh.read()
        """)
    assert rules_of(findings) == ["IPR203"]


def test_all_registered_cells_are_pure(src_lint):
    modules, findings = src_lint
    cells = [f for m in modules for f in m.functions if is_cell(f)]
    assert len(cells) >= 14
    assert [f.render() for f in findings if f.rule == "IPR203"] == []


# ---------------------------------------------------------------------------
# Mutation checks: the analyzer notices a deleted release
# ---------------------------------------------------------------------------
def test_mutation_designated_fixture(tmp_path):
    fixture = textwrap.dedent("""\
        def serve(sm, packet):
            yield sm.locks.acquire("t")
            try:
                yield 1
            finally:
                sm.locks.release("t")
        """)
    assert run_lint(tmp_path, fixture) == []
    mutated = fixture.replace('        sm.locks.release("t")\n', "        pass\n")
    assert mutated != fixture
    findings = run_lint(tmp_path, mutated, name="mut.py")
    assert any(
        f.rule == "IPR001" and f.symbol == "serve" for f in findings
    ), [f.render() for f in findings]


def test_mutation_real_engine_function(tmp_path):
    """Delete the temp-file drop from a copy of the real NL-join engine
    and the analyzer must report IPR003 against NLJoinEngine.serve."""
    source = (REPO / "src/repro/engine/engines/joins.py").read_text()
    drop_line = "            sm.drop_temp_file(mat)\n"
    assert drop_line in source
    mutated = source.replace(drop_line, "            pass\n")

    def ipr003_of(text):
        (tmp_path / "joins_copy.py").write_text(text)
        found = lint_paths(
            [str(tmp_path / "joins_copy.py")], root=str(tmp_path)
        )
        return [f for f in found if f.rule == "IPR003"]

    assert ipr003_of(source) == []
    mutants = ipr003_of(mutated)
    assert any(f.symbol == "NLJoinEngine.serve" for f in mutants), [
        f.render() for f in mutants
    ]


# ---------------------------------------------------------------------------
# Baseline v2
# ---------------------------------------------------------------------------
IMPURE = """\
    def cell(fn):
        return fn

    @cell
    def bad_cell(spec):
        with open(spec) as fh:
            return fh.read()
"""


def test_baseline_v2_round_trip(tmp_path):
    findings = run_lint(tmp_path, IMPURE)
    assert rules_of(findings) == ["IPR203"]
    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, str(baseline_path))
    doc = json.loads(baseline_path.read_text())
    assert doc["version"] == 2
    assert doc["findings"][0]["symbol"] == "bad_cell"

    baseline = load_baseline(str(baseline_path))
    new, grandfathered, stale = apply_baseline(findings, baseline)
    assert new == [] and len(grandfathered) == 1 and stale == []


def test_baseline_stale_entry_reported(tmp_path):
    findings = run_lint(tmp_path, IMPURE)
    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, str(baseline_path))
    baseline = load_baseline(str(baseline_path))
    new, grandfathered, stale = apply_baseline([], baseline)
    assert new == [] and grandfathered == [] and len(stale) == 1


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------
def test_sarif_document_structure(tmp_path):
    findings = run_lint(tmp_path, IMPURE)
    from repro.lint.core import rule_catalogue

    doc = sarif_doc(findings, rule_catalogue())
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"] == SCHEMA_URI
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "simlint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert "IPR203" in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "IPR203"
    assert result["level"] == "error"
    assert driver["rules"][result["ruleIndex"]]["id"] == "IPR203"
    (location,) = result["locations"]
    region = location["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1
    assert "simlintFingerprint/v2" in result["partialFingerprints"]


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True,
    )


BAD = "def order(pages):\n    return sorted(pages, key=lambda p: id(p))\n"


def test_cli_sarif_output(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD)
    proc = _run_cli(
        ["--format", "sarif", "--output", "out.sarif", str(bad)],
        cwd=tmp_path,
    )
    assert proc.returncode == 1
    doc = json.loads((tmp_path / "out.sarif").read_text())
    assert doc["version"] == "2.1.0"
    assert [r["ruleId"] for r in doc["runs"][0]["results"]] == ["DET004"]


# ---------------------------------------------------------------------------
# CLI: --explain, --jobs
# ---------------------------------------------------------------------------
def test_cli_explain_ipr_rule(tmp_path):
    proc = _run_cli(["--explain", "IPR003"], cwd=tmp_path)
    assert proc.returncode == 0
    assert "create_temp_file" in proc.stdout
    assert "try/finally" in proc.stdout or "track_temp" in proc.stdout


def test_parallel_parse_matches_serial(tmp_path):
    (tmp_path / "a.py").write_text(BAD)
    (tmp_path / "b.py").write_text(
        "def g(sm):\n    yield sm.locks.acquire('t')\n    yield 1\n"
    )
    serial = lint_paths([str(tmp_path)], root=str(tmp_path), jobs=1)
    parallel = lint_paths([str(tmp_path)], root=str(tmp_path), jobs=2)
    assert [f.to_dict() for f in serial] == [f.to_dict() for f in parallel]
    assert serial != []


def test_parallel_parse_reports_syntax_errors(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    for jobs in (1, 2):
        with pytest.raises(SyntaxError):
            lint_paths([str(tmp_path)], root=str(tmp_path), jobs=jobs)
