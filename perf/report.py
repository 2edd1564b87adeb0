"""Whole-benchmark runs and the tools that read them: ``--json``,
``--compare``, ``--noise-sets`` and ``--ab``.

Every measurement here is a child ``python -m perf --workload W --trace T``
process, one at a time, so each workload starts from a fresh interpreter
and the other side of an A/B is just another ``--src``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from perf import CHILD_ENV, ROOT
from perf.metrics import END_TO_END, UNITS, is_exact, quartiles

WORKLOAD_NAMES = ("mix_packets", "mix_pushed", "mix_iterator", "scan_share",
                  "dml_mix", "scaleout_4h")
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}


def child(workload: str, trace: int, args, seed: int,
          src: Optional[str] = None) -> dict:
    """One child run; returns its result object plus ``detail``."""
    command = [sys.executable, "-m", "perf", "--workload", workload,
               "--trace", str(trace), "--seed", str(seed),
               "--seconds", str(args.seconds), "--src", src or args.src]
    if args.repeats:
        command += ["--repeats", str(args.repeats)]
    done = subprocess.run(command, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["detail"] = json.loads(lines[-2].split(" ", 1)[1])
    except (IndexError, ValueError):
        raise SystemExit(f"{workload} --trace {trace} printed no result "
                         f"(exit {done.returncode}):\n{done.stdout[-2000:]}"
                         f"{done.stderr[-2000:]}")
    result["problems"] = [line for line in lines if line.startswith("PROBLEM")]
    return result


def _selected(args) -> List[str]:
    unknown = set(args.workload) - set(WORKLOAD_NAMES)
    if unknown:
        raise SystemExit(f"unknown workload(s): {sorted(unknown)}")
    return [w for w in WORKLOAD_NAMES if not args.workload or w in args.workload]


def _values(result: dict) -> Dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


# ---------------------------------------------------------------------------
# The whole benchmark
# ---------------------------------------------------------------------------
def measure_all(args, seed: int, traced: bool = True) -> dict:
    """Every selected workload, untraced then traced; the ``--json``
    document."""
    doc = {"seed": seed, "workloads": {}}
    for workload in _selected(args):
        plain = child(workload, 0, args, seed)
        detail = plain["detail"]
        entry = {
            "correct": plain["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "problems": plain["problems"],
            "end_to_end": _values(plain),
            "quartiles": {"host_s": detail["host_s_quartiles"],
                          "setup_s": detail["setup_s_quartiles"]},
            "raw_wall_s": detail["raw_wall_s"],
            "raw_wall_median_s": detail["raw_wall_median_s"],
            "exact": detail["exact"],
            "repeats": detail["repeats"],
        }
        doc.setdefault("kernel_sha256", detail["kernel_sha256"])
        doc.setdefault("cal_ref_s", detail["cal_ref_s"])
        if traced:
            layered = child(workload, 1, args, seed)
            entry["per_layer"] = _values(layered)
            entry["correct"] &= layered["correct"]
            entry["problems"] += layered["problems"]
        doc["workloads"][workload] = entry
    return doc


def full_run(args) -> int:
    doc = measure_all(args, args.seed)
    problems = []
    for workload, entry in doc["workloads"].items():
        print(f"== {workload}  (n = {entry['attempted']} operations, "
              f"{len(entry['repeats']) - 1} timed repeats)")
        share = entry["failed"] / entry["attempted"]
        readings = {**entry["end_to_end"], "failed_share": share,
                    **entry["per_layer"]}
        for name, value in readings.items():
            print(f"  {name:32s} {value:14.6g} {UNITS[name]}")
        problems += [f"{workload}: {p}" for p in entry["problems"]]
        if not entry["correct"] and not entry["problems"]:
            problems.append(f"{workload}: reported incorrect")
    pushed = doc["workloads"].get("mix_pushed")
    iterator = doc["workloads"].get("mix_iterator")
    if pushed and iterator:
        # DESIGN section 12: the two agree on rows, finish time and reads.
        for key in ("rows_digest", "virt_makespan_s", "disk_blocks_read"):
            if pushed["exact"][key] != iterator["exact"][key]:
                problems.append(
                    f"mix_pushed and mix_iterator disagree on {key}: "
                    f"{pushed['exact'][key]!r} vs {iterator['exact'][key]!r}")
    print("virtual numbers are shape-validated against the paper only "
          "(EXPERIMENTS.md); no error figure is given")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# --compare A.json B.json
# ---------------------------------------------------------------------------
def _worse_by(base: float, other: float) -> float:
    """How much worse *other* is than *base*, as a share of *base*
    (every end-to-end metric is lower-is-better)."""
    return (other - base) / base


def verdict(name: str, a: float, b: float, spread: float) -> str:
    bound = BOUNDS[name]
    if spread > bound:
        return "unresolved"
    worse = _worse_by(a, b)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a_doc = json.load(handle)
    with open(path_b) as handle:
        b_doc = json.load(handle)
    print(f"A = {path_a}   B = {path_b}   (deltas are B against A, base A; "
          f"[q1, q3] are the quartiles of a run's timed repeats, and a row "
          f"is unresolved when the wider of the two exceeds the bound)")
    print(f"{'workload':13s} {'metric':17s} {'A value [q1, q3]':>34s} "
          f"{'B value [q1, q3]':>34s} {'delta':>8s} {'bound':>6s}  verdict")
    regressed = False
    for workload in WORKLOAD_NAMES:
        if not (workload in a_doc["workloads"] and workload in b_doc["workloads"]):
            continue
        a, b = a_doc["workloads"][workload], b_doc["workloads"][workload]
        for name, _, _, bound in END_TO_END:
            va, vb = a["end_to_end"][name], b["end_to_end"][name]
            qa = a["quartiles"].get(name, [va, va, va])
            qb = b["quartiles"].get(name, [vb, vb, vb])
            spread = max(qa[2] - qa[0], qb[2] - qb[0]) / va
            outcome = verdict(name, va, vb, spread)
            regressed |= outcome == "regressed"
            print(f"{workload:13s} {name:17s} "
                  f"{va:12.5g} [{qa[0]:9.4g},{qa[2]:9.4g}] "
                  f"{vb:12.5g} [{qb[0]:9.4g},{qb[2]:9.4g}] "
                  f"{_worse_by(va, vb):+8.2%} {bound:6.0%}  {outcome}")
        exact_a = {**a.get("per_layer", {}), **a["exact"]}
        exact_b = {**b.get("per_layer", {}), **b["exact"]}
        for key in sorted(exact_a):
            if (is_exact(key) and key in exact_b
                    and exact_a[key] != exact_b[key]):
                ratio = (f"{exact_b[key] / exact_a[key]:.4f} x A"
                         if isinstance(exact_a[key], (int, float))
                         and exact_a[key] else "")
                print(f"  exact differs: {workload} {key}: "
                      f"A {exact_a[key]!r}  B {exact_b[key]!r}  {ratio}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# --noise-sets K
# ---------------------------------------------------------------------------
def noise(args) -> int:
    """K whole sets, set i at seed ``--seed + i`` (the driver judges the
    benchmark over runs at different seeds, so the spread a bound must
    hold includes the seed); writes perf/NOISE.md."""
    sets = [measure_all(args, args.seed + i, traced=False)
            for i in range(args.noise_sets)]
    lines = [
        "# Noise floor of the end-to-end metrics",
        "",
        f"`python -m perf --noise-sets {args.noise_sets} --seed {args.seed}`: "
        f"{args.noise_sets} whole sets of untraced runs, set *i* at seed "
        f"{args.seed} + *i*, {args.seconds:g} s of timed repeats per run. "
        "Each cell is what one run reported; *IQR* and *range* are shares of "
        "the median of the row. `raw_wall_s` is `host_s` before calibration "
        "(the fastest repeat, in raw seconds) and `raw_wall_median_s` the "
        "median repeat: the three rows show what taking the fastest repeat "
        "and dividing by the calibration probe each remove. The driver "
        "accepts the benchmark while every IQR except `setup_s`'s stays "
        "inside its bound, and asks for a third of it; ISSUE 11 asked for "
        "bounds of twice the range, which the 25% a manifest may state "
        "cannot give host time on this sandbox.",
        "",
    ]
    over_third, over_half = [], []
    for workload in _selected(args):
        lines += [f"## {workload}", "",
                  "| metric | unit | " + " | ".join(
                      f"seed {s['seed']}" for s in sets)
                  + " | IQR | range | bound |",
                  "|---|---|" + "---:|" * (len(sets) + 3)]
        rows = [(name, [s["workloads"][workload]["end_to_end"][name]
                        for s in sets]) for name, *_ in END_TO_END]
        rows[1:1] = [(name, [s["workloads"][workload][name] for s in sets])
                     for name in ("raw_wall_s", "raw_wall_median_s")]
        for name, values in rows:
            q1, median, q3 = quartiles(values)
            iqr = (q3 - q1) / median
            spread = (max(values) - min(values)) / median
            bound = BOUNDS.get(name)
            if bound is not None and name != "setup_s":
                if bound < 3 * iqr:
                    over_third.append(f"{workload} `{name}` {iqr:.1%}")
                if bound < 2 * spread:
                    over_half.append(f"{workload} `{name}` {spread:.1%}")
            lines.append(
                f"| `{name}` | {UNITS.get(name, 's')} | "
                + " | ".join(f"{v:.5g}" for v in values)
                + f" | {iqr:.1%} | {spread:.1%} | "
                + (f"{bound:.0%}" if bound is not None else "-") + " |")
        lines.append("")
    failed = [f"{w} seed {s['seed']}" for s in sets
              for w, e in s["workloads"].items() if not e["correct"]]
    lines += ["IQR above a third of its bound: "
              + ("; ".join(over_third) or "none") + ".", "",
              "Range above half its bound: "
              + ("; ".join(over_half) or "none") + ".", "",
              "Runs that reported incorrect: "
              + ("; ".join(failed) if failed else "none") + ".", ""]
    with open(os.path.join(ROOT, "perf", "NOISE.md"), "w") as handle:
        handle.write("\n".join(lines))
    print("\n".join(lines))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# --ab OTHER_SRC --pairs N
# ---------------------------------------------------------------------------
def ab(args) -> int:
    """Interleaved pairs of this tree's ``src/`` (the change) against
    another checkout's (the parent), alternating which side runs first."""
    sides = {"change": args.src, "parent": os.path.abspath(args.ab)}
    print(f"change = {sides['change']}   parent = {sides['parent']}   "
          f"{args.pairs} pairs per workload; a gain may be claimed when, over "
          f"at least 10 pairs, the change wins >= 90% and the medians differ "
          f"by more than "
          f"the parent's inter-quartile distance")
    for workload in _selected(args):
        values = {side: {name: [] for name, *_ in END_TO_END}
                  for side in sides}
        for pair in range(args.pairs):
            order = ("change", "parent") if pair % 2 == 0 else ("parent", "change")
            for side in order:
                result = child(workload, 0, args, args.seed, sides[side])
                if not result["correct"]:
                    print(f"PROBLEM: {workload} on {side}: "
                          f"{result['problems']}")
                for name, value in _values(result).items():
                    values[side][name].append(value)
        print(f"== {workload}")
        for name, unit, _, bound in END_TO_END:
            change, parent = values["change"][name], values["parent"][name]
            wins = sum(c < p for c, p in zip(change, parent))
            losses = sum(c > p for c, p in zip(change, parent))
            cq, pq = quartiles(change), quartiles(parent)
            apart = abs(cq[1] - pq[1]) > pq[2] - pq[0]
            claim = args.pairs >= 10 and wins >= 0.9 * args.pairs and apart
            print(f"  {name:17s} change {cq[1]:11.5g} [{cq[0]:9.4g},{cq[2]:9.4g}]"
                  f"  parent {pq[1]:11.5g} [{pq[0]:9.4g},{pq[2]:9.4g}] {unit:7s}"
                  f" won {wins}/{args.pairs} lost {losses}/{args.pairs}"
                  f"  change/parent {cq[1] / pq[1]:.4f} (base parent)"
                  f"  beyond parent IQR: {'yes' if apart else 'no'}"
                  f"  gain: {'yes' if claim else 'no'}")
    return 0
