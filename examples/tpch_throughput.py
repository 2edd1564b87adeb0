#!/usr/bin/env python3
"""A miniature Figure 12: TPC-H mix throughput for the three systems.

Runs the paper's closed-loop TPC-H workload (queries Q1, Q4, Q6, Q8,
Q12, Q13, Q14, Q19 with qgen-randomised predicates, zero think time) at
a few client counts on all three systems:

* QPipe w/OSP  -- the paper's contribution,
* Baseline     -- the same engine with OSP disabled,
* DBMS X       -- a conventional iterator engine with a stronger pool.

Run:  python examples/tpch_throughput.py         (about a minute)
"""

from repro.harness import FIGURES, SMOKE
from repro.harness.config import with_overrides

CLIENTS = (1, 4, 8, 12)


def main() -> None:
    scale = with_overrides(SMOKE, queries_per_client=2)
    print(
        "TPC-H mix throughput (smoke scale: "
        f"~{int(15000 * scale.tpch_factor * 4):,} lineitem rows, "
        f"{scale.buffer_pages}-page pool)\n"
    )
    series = FIGURES["fig12"].run(scale, count=CLIENTS)
    print(series.render())
    qpipe = series.curve("QPipe w/OSP")
    dbmsx = series.curve("DBMS X")
    print(
        f"\nQPipe vs DBMS X at {CLIENTS[-1]} clients: "
        f"{qpipe[-1] / dbmsx[-1]:.1f}x "
        "(the paper reports up to 2x)"
    )


if __name__ == "__main__":
    main()
