"""The repo's benchmark: six closed-loop workloads over the three
engines, measured from outside ``src/repro`` (see perf/README.md)."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Every measuring process runs with these, so set iteration order and
#: the absence of bytecode files do not depend on who launched it.
CHILD_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
