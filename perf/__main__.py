"""``python -m perf`` -- run from the repository root.

One run of one workload (what ``BENCHMARK.json`` names)::

    python -m perf --workload mix_packets --seed 1 --seconds 12 --trace 0

prints every metric with its unit and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.

Without ``--trace`` the whole benchmark runs: every selected workload,
untraced and traced, one child process at a time (see perf/README.md for
``--json``, ``--compare``, ``--noise-sets`` and ``--ab``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from perf import CHILD_ENV, ROOT

#: The driver's contract: how long one run measures.
RUN_SECONDS = 12
DEFAULT_SEED = 1


def parse(argv):
    parser = argparse.ArgumentParser(prog="python -m perf",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="restrict to this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives every client parameter stream")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="wall seconds of timed repeats per run")
    parser.add_argument("--repeats", type=int,
                        help="exactly this many timed repeats instead")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one in-process run of one workload")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the tree to measure (default: this one's src/)")
    parser.add_argument("--json", help="write the whole-run document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--noise-sets", type=int, metavar="K")
    parser.add_argument("--ab", metavar="OTHER_SRC")
    parser.add_argument("--pairs", type=int, default=10)
    return parser.parse_args(argv)


def single_run(args, argv) -> int:
    """The contract's run, in this process."""
    if len(args.workload) != 1:
        raise SystemExit("--trace takes exactly one --workload")
    if not os.path.isdir(os.path.join(args.src, "repro")):
        raise SystemExit(f"nothing to measure: no repro package in {args.src}")
    if any(os.environ.get(k) != v for k, v in CHILD_ENV.items()):
        os.execve(sys.executable, [sys.executable, "-m", "perf"] + argv,
                  {**os.environ, **CHILD_ENV})
    sys.path.insert(0, args.src)
    from perf.measure import run_workload
    from perf.metrics import UNITS

    result = run_workload(args.workload[0], args.seed, args.seconds,
                          bool(args.trace), args.repeats)
    for name, value in result.metrics.items():
        print(f"{name:32s} {value:.6g} {UNITS[name]}")
    print(f"{'failed_share':32s} {result.failed / result.attempted:.6g} "
          f"fraction ({result.failed} of {result.attempted} operations)")
    for problem in result.problems:
        print(f"PROBLEM: {problem}")
    print("detail " + json.dumps(result.detail))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0 if result.correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse(argv)
    if args.trace is not None:
        return single_run(args, argv)
    from perf import report

    if args.compare:
        return report.compare(*args.compare)
    if args.noise_sets:
        return report.noise(args)
    if args.ab:
        return report.ab(args)
    return report.full_run(args)


if __name__ == "__main__":
    sys.exit(main())
