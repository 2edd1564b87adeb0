"""Findings, the rule catalogue, and the lint driver.

The driver parses every ``.py`` file under the given paths into a
:class:`~repro.lint.scopes.ModuleInfo`, runs the per-module rule
families over each module, runs the project-wide checks (which need
every module's symbol table at once -- the interprocedural IPR passes
build their call graph here), drops findings suppressed by a
``# simlint: disable=RULE`` comment on the flagged line, and returns
the rest sorted by location.  A file that does not parse raises its
``SyntaxError``: the run fails, as it would for any finding.

Rule modules contribute three things: a ``RULES`` dict (rule id ->
one-line description, merged into :func:`rule_catalogue`), an optional
``EXPLAIN`` dict of extended ``--explain`` text, and ``check(module)``
/ ``check_project(modules)`` generators of :class:`Finding`.

Parsing parallelises with ``jobs > 1`` (a spawn-safe process pool,
clamped to ``cpu_count`` like the harness PoolRunner); analysis stays
in-process -- the project passes need every module anyway, and parsing
dominates cold-start time.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Tuple

from repro.lint import rules_det, rules_ipr, rules_trc
from repro.lint.findings import Finding
from repro.lint.scopes import ModuleInfo

RULES: Dict[str, str] = {}
EXPLAIN: Dict[str, str] = {}
for _mod in (rules_det, rules_trc, rules_ipr):
    RULES.update(_mod.RULES)
    EXPLAIN.update(getattr(_mod, "EXPLAIN", {}))


def rule_catalogue() -> List[Tuple[str, str]]:
    """Every (rule id, description), sorted by id."""
    return sorted(RULES.items())


# ---------------------------------------------------------------------------
# File collection and parsing
# ---------------------------------------------------------------------------
def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Every ``.py`` file under *paths*, sorted for determinism."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs
                if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(dict.fromkeys(out))


def _relpath(path: str, root: str) -> str:
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # different drive (windows)
        rel = path
    if rel.startswith(".."):
        rel = path
    return rel.replace(os.sep, "/")


def load_module(path: str, root: str = ".") -> ModuleInfo:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return ModuleInfo(path, _relpath(path, root), source)


def collect_modules(
    paths: Iterable[str], root: str = ".", jobs: int = 1
) -> List[ModuleInfo]:
    """Parse every Python file under *paths*.  ``jobs`` is clamped to
    the machine's core count (requesting more buys nothing, same rule
    as the harness PoolRunner)."""
    files = iter_python_files(paths)
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    if jobs > 1 and len(files) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(
                pool.map(load_module, files, [root] * len(files),
                         chunksize=8)
            )
    return [load_module(f, root) for f in files]


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
_MODULE_CHECKS = (rules_det.check, rules_trc.check)


def lint_modules(modules: List[ModuleInfo]) -> List[Finding]:
    """Run every check over already-parsed modules; returns surviving
    findings (suppressions applied), sorted by location."""
    findings: List[Finding] = []
    for module in modules:
        for check in _MODULE_CHECKS:
            findings.extend(check(module))
    findings.extend(rules_ipr.check_project(modules))

    by_rel = {m.rel: m for m in modules}
    survivors = []
    for finding in findings:
        module = by_rel.get(finding.path)
        if module is not None and module.suppressed(
            finding.line, finding.rule
        ):
            continue
        survivors.append(finding)
    return sorted(survivors, key=Finding.sort_key)


def lint_paths(
    paths: Iterable[str], root: str = ".", jobs: int = 1
) -> List[Finding]:
    """Analyze every Python file under *paths*; returns the surviving
    findings (suppressions already applied), sorted by location."""
    return lint_modules(collect_modules(paths, root, jobs))
