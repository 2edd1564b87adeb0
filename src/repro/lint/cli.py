"""The ``python -m repro.lint`` command line and its reporters.

Usage::

    python -m repro.lint [--format text|json|sarif] [--output FILE]
                         [--baseline lint_baseline.json]
                         [--write-baseline] [--rules] [--explain RULE]
                         [--jobs N] [paths...]

Paths default to ``src`` (falling back to ``.``).  The default baseline
file is ``lint_baseline.json`` in the working directory and is silently
skipped when absent, so ``python -m repro.lint src`` does the right
thing both locally and in CI.  Exit status: 0 when no new findings,
1 otherwise (a file that does not parse fails the run too).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.lint.baseline import (
    Baseline,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.core import (
    EXPLAIN,
    Finding,
    RULES,
    lint_paths,
    rule_catalogue,
)
from repro.lint.sarif import sarif_doc

DEFAULT_BASELINE = "lint_baseline.json"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "simlint: static analysis of the engine's determinism, "
            "cooperative-scheduling, and resource-safety contracts"
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=(
            f"baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE} when present)"
        ),
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print the full catalogue entry for one rule and exit",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parse files with N processes (clamped to cpu_count)",
    )
    args = parser.parse_args(argv)

    if args.rules:
        for rule, doc in rule_catalogue():
            print(f"{rule}  {doc}")
        return 0
    if args.explain is not None:
        return _explain(parser, args.explain.upper())

    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    findings = lint_paths(paths, jobs=args.jobs)

    baseline_path = args.baseline or DEFAULT_BASELINE
    if args.write_baseline:
        write_baseline(findings, baseline_path)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    baseline = Baseline()
    if args.baseline is not None or os.path.isfile(baseline_path):
        try:
            baseline = load_baseline(baseline_path)
        except FileNotFoundError:
            parser.error(f"baseline file not found: {baseline_path}")
        except (ValueError, KeyError) as exc:
            parser.error(f"bad baseline file: {exc}")

    new, grandfathered, stale = apply_baseline(findings, baseline)

    out = open(args.output, "w", encoding="utf-8") if args.output \
        else sys.stdout
    try:
        if args.format == "json":
            _report_json(new, grandfathered, stale, out)
        elif args.format == "sarif":
            json.dump(
                sarif_doc(new, rule_catalogue()), out, indent=2,
                sort_keys=True,
            )
            out.write("\n")
        else:
            _report_text(new, grandfathered, stale, paths, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 1 if new else 0


def _explain(parser: argparse.ArgumentParser, rule: str) -> int:
    if rule not in RULES:
        parser.error(
            f"unknown rule {rule!r} (see python -m repro.lint --rules)"
        )
    print(f"{rule}: {RULES[rule]}")
    extra = EXPLAIN.get(rule)
    if extra:
        print()
        print(extra)
    return 0


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------
def _report_text(
    new: List[Finding],
    grandfathered: List[Finding],
    stale,
    paths: List[str],
    out,
) -> None:
    for finding in new:
        print(finding.render(), file=out)
    bits = [f"{len(new)} finding(s)"]
    if grandfathered:
        bits.append(f"{len(grandfathered)} baselined")
    if stale:
        bits.append(
            f"{len(stale)} stale baseline entr"
            f"{'y' if len(stale) == 1 else 'ies'} "
            f"(fixed code; regenerate with --write-baseline)"
        )
    status = "clean" if not new else "FAILED"
    print(
        f"simlint: {', '.join(bits)} in {' '.join(paths)} -- {status}",
        file=out,
    )


def _report_json(
    new: List[Finding], grandfathered: List[Finding], stale, out
) -> None:
    doc = {
        "version": 2,
        "findings": [f.to_dict() for f in new],
        "baselined": len(grandfathered),
        "stale_baseline_entries": [
            {"path": p, "rule": r, "key": s} for (p, r, s) in stale
        ],
    }
    json.dump(doc, out, indent=2, sort_keys=True)
    out.write("\n")
