"""DESIGN.md's knob table names every field of the five config dataclasses.

The table records, for each settable value, who sets it to a second
value.  A field added or deleted without its row fails here, so the
census cannot drift from the code.
"""

import dataclasses
import pathlib
import re

from repro.engine.qpipe import QPipeConfig
from repro.harness.config import Scale
from repro.hw.host import ClusterConfig, HostConfig
from repro.hw.net import NetConfig

DESIGN = pathlib.Path(__file__).resolve().parent.parent / "DESIGN.md"
HEADING = "### The knob table"
CONFIGS = (QPipeConfig, HostConfig, NetConfig, ClusterConfig, Scale)
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \|")


def table_rows():
    """The table's lines: from the first ``|`` line after the heading
    to the first line after it that is not a table line."""
    lines = DESIGN.read_text().splitlines()
    start = lines.index(next(line for line in lines if line.startswith(HEADING)))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    return rows


def test_the_knob_table_rows_are_exactly_the_config_fields():
    names = {cls.__name__ for cls in CONFIGS}
    listed = [
        f"{m.group(1)}.{m.group(2)}"
        for m in map(ROW.match, table_rows())
        if m and m.group(1) in names
    ]
    fields = [
        f"{cls.__name__}.{field.name}"
        for cls in CONFIGS
        for field in dataclasses.fields(cls)
    ]
    assert len(listed) == len(set(listed)), "a field has two rows"
    assert sorted(listed) == sorted(fields)


def test_every_row_says_who_sets_it():
    rows = table_rows()[2:]  # past the header and its rule
    assert rows
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert len(cells) == 3 and all(cells), row
