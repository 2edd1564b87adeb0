"""Command-line figure runner: ``python -m repro.harness <figure> [...]``.

Examples::

    python -m repro.harness list
    python -m repro.harness fig8
    python -m repro.harness fig12 --scale default
    python -m repro.harness all --scale smoke --jobs 4 --cache

Figures are entries of one table (:data:`repro.harness.experiments.FIGURES`),
each a grid of pure cells, so ``--jobs N`` executes the cells on a process
pool and ``--cache`` serves previously computed ones from the
content-addressed cache -- both without changing a byte of the rendered
output.  This module is the one place under ``src/`` that reads the host
clock (the ``[... wall]`` lines).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.harness import DEFAULT, FIGURES, SMOKE
from repro.parallel import CellCache, CellError, PoolRunner
from repro.parallel.cache import DEFAULT_DIR as CACHE_DIR

SCALES = {"smoke": SMOKE, "default": DEFAULT}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the QPipe paper's figures.",
    )
    parser.add_argument(
        "figure",
        help="figure id (see 'list'), 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="smoke",
        help="experiment scale preset (default: smoke)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for cell execution (default: 1 = serial "
            "in-process; 0 = one per CPU); output is byte-identical "
            "for every N"
        ),
    )
    parser.add_argument(
        "--hosts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "cap the scaleout figure's host sweep at N hosts (the "
            "1-host baseline always runs; other figures are unaffected)"
        ),
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        default=False,
        help="serve unchanged cells from the content-addressed cache",
    )
    parser.add_argument(
        "--no-cache",
        action="store_false",
        dest="cache",
        help="disable the cell cache (the default)",
    )
    parser.add_argument(
        "--cache-clear",
        action="store_true",
        help="delete the cell cache before running",
    )
    parser.add_argument(
        "--cache-dir",
        default=CACHE_DIR,
        metavar="DIR",
        help="cell cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help=(
            "record packet-lifecycle traces; writes one JSONL and one "
            "Chrome trace_event file per cell-built host into DIR, plus "
            "a merged per-figure JSONL (bypasses cache reads)"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=1,
        help=(
            "seed for the chaos experiment's random fault plan and the "
            "recovery experiment's crash points"
        ),
    )
    args = parser.parse_args(argv)

    if args.figure == "list":
        print("available figures:")
        for name in FIGURES:
            print(f"  {name}")
        return 0

    names = list(FIGURES) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(f"unknown figure {unknown[0]!r}; try 'list'")

    cache = None
    if args.cache_clear:
        CellCache(args.cache_dir).clear()
    if args.cache:
        cache = CellCache(args.cache_dir)

    scale = SCALES[args.scale]
    tracing = args.trace is not None
    failed = False
    try:
        with PoolRunner(jobs=args.jobs, cache=cache, trace=tracing) as pool:
            for name in names:
                figure = FIGURES[name]
                sweep = {}
                if args.hosts is not None and "hosts" in figure.axes:
                    sweep["hosts"] = tuple(
                        h for h in figure.axes["hosts"] if h <= args.hosts
                    )
                if "fault_seed" in figure.fixed:
                    sweep["fault_seed"] = args.fault_seed
                runner = _KeepLast(pool)
                # Wall-clock here measures the *host*, never sim behaviour.
                start = time.time()
                value = figure.run(scale, runner, **sweep)
                print(figure.render(value))
                elapsed = time.time() - start
                print(f"[{name} @ {scale.name}: {elapsed:.1f}s wall]\n")
                if tracing:
                    _dump_cell_traces(args.trace, name, *runner.last)
                failed = failed or figure.failed(value)
            stats = pool.stats
    except KeyboardInterrupt:
        print("[interrupted: outstanding cells cancelled]", file=sys.stderr)
        return 130
    except CellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"[cells: total={stats.total} executed={stats.executed} "
        f"cache-hits={stats.cache_hits} "
        f"hit-rate={stats.hit_rate * 100:.0f}%]"
    )
    return 1 if failed else 0


class _KeepLast:
    """The pool as a figure runs on it, keeping the last grid's specs and
    results (per-cell traces ride on the results) for ``--trace``."""

    def __init__(self, pool: PoolRunner):
        self.pool = pool
        self.last = None

    def run(self, specs):
        results = self.pool.run(specs)
        self.last = (specs, results)
        return results


def _dump_cell_traces(directory: str, figure: str, specs, ran) -> None:
    """Write each cell's per-host traces, plus one merged figure JSONL.

    Files are named by cell slug (not completion order), and the merge
    concatenates in declarative spec order, so trace output is identical
    for every ``--jobs`` value.
    """
    from repro.obs import write_chrome, write_jsonl

    os.makedirs(directory, exist_ok=True)
    merged = []
    cells = 0
    for spec in specs:
        traces = ran[spec].traces or []
        for j, events in enumerate(traces):
            stem = os.path.join(directory, f"{figure}-{spec.slug()}-h{j:02d}")
            write_jsonl(events, f"{stem}.jsonl")
            write_chrome(events, f"{stem}.trace.json")
            merged.extend(events)
        cells += 1
    merged_path = os.path.join(directory, f"{figure}.jsonl")
    write_jsonl(merged, merged_path)
    print(
        f"[trace: {merged_path} ({len(merged)} events across "
        f"{cells} cells)]"
    )


if __name__ == "__main__":
    sys.exit(main())
