"""Baseline files: grandfathering known findings without hiding new ones.

A baseline is a committed JSON file listing findings that are accepted
for now.  ``python -m repro.lint --baseline lint_baseline.json`` drops
any finding matching a baseline entry and fails only on *new* ones, so
the lint gate can be turned on before a tree is fully clean -- and the
entries burn down as files get fixed (stale entries are reported).

Entries fingerprint on ``(path, rule, symbol)`` -- the qualified name
of the enclosing function -- so neither unrelated edits above a
grandfathered finding *nor* rewording of the flagged line churn the
baseline; duplicate keys carry a count.  An empty baseline
(``{"findings": []}``) is the steady state this tree maintains.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List, Tuple

from repro.lint.findings import Finding

_VERSION = 2

Key = Tuple[str, str, str]


class Baseline(Counter):
    """Grandfathered-finding budgets: ``(path, rule, symbol) -> count``."""


def load_baseline(path: str) -> Baseline:
    """The baseline as budgets of finding fingerprints; an entry
    without a ``symbol`` (the retired snippet-keyed format) is an
    error -- ``--write-baseline`` writes a fresh one."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "findings" not in doc:
        raise ValueError(
            f"{path}: not a simlint baseline (expected a 'findings' list)"
        )
    baseline = Baseline()
    for entry in doc["findings"]:
        if "symbol" not in entry:
            raise ValueError(f"{path}: entry without a 'symbol': {entry}")
        key = (entry["path"], entry["rule"], entry["symbol"])
        baseline[key] += entry.get("count", 1)
    return baseline


def write_baseline(findings: List[Finding], path: str) -> None:
    """Write the given findings as a fresh v2 baseline file."""
    keys = Counter(f.baseline_key() for f in findings)
    doc = {
        "version": _VERSION,
        "findings": [
            {"path": p, "rule": r, "symbol": s, "count": c}
            for (p, r, s), c in sorted(keys.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def apply_baseline(
    findings: List[Finding], baseline: Baseline
) -> Tuple[List[Finding], List[Finding], List[Key]]:
    """Split findings into (new, grandfathered) and list stale entries.

    Each baseline entry absorbs at most ``count`` matching findings.
    Entries matching nothing are *stale*: the code they covered was
    fixed, so the baseline should be regenerated to burn them down.
    """
    budget = Counter(baseline)
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        key = finding.baseline_key()
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            old.append(finding)
        else:
            new.append(finding)
    stale = sorted(key for key, count in budget.items() if count > 0)
    return new, old, stale
