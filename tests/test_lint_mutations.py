"""Every kept simlint rule against the mutation that earned it.

DESIGN section 9 scores each rule on a mutation corpus: one plausible
instance of the rule's bug class, applied to the real tree.  A rule is
kept only if it flags its mutation while the rest of tier-1 passes on a
tree carrying it.  Each test here applies that mutation to a copy of
the live source file, lints the copy, and asserts the rule fires -- and
that the unmutated file is clean for it -- so the evidence for a kept
rule stays checkable as the engine changes.
"""

import pathlib

import pytest

from repro.lint import lint_paths

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: rule -> (file under src/repro, [(old, new), ...]).  Each ``old``
#: occurs exactly once in the live file.
MUTATIONS = {
    # A tie-break on object identity: the victim differs between runs
    # whenever two blocking buffers hold the same level.
    "DET004": ("osp/deadlock.py", [(
        "victim = min(candidates, key=lambda buf: buf.level)",
        "victim = min(candidates, key=lambda buf: (buf.level, id(buf)))",
    )]),
    # De-duplicating the packets of an aborted query through a set: the
    # host-end sweep then runs in address order.
    "DET005": ("engine/qpipe.py", [(
        "        for packet in query.packets:\n"
        "            packet.end_satellites(early=True)",
        "        for packet in set(query.packets):\n"
        "            packet.end_satellites(early=True)",
    )]),
    # A literal seed where the named one belongs (FIG_QUERY_SEED is 1):
    # the cell no longer runs the parameters its spec records.
    "DET006": ("harness/experiments.py", [(
        "builder(random.Random(FIG_QUERY_SEED))",
        "builder(random.Random(2))",
    )]),
    # A scanner restart that forgets one of its registry fields.
    "TRC003": ("osp/circular.py", [(
        "                    position=scan.current_page,\n"
        "                    consumers=len(scan.consumers),\n",
        "                    position=scan.current_page,\n",
    )]),
    # An early return for an empty table between the table lock and the
    # try/finally that releases it: the shared lock stays held.
    "IPR001": ("engine/engines/scan.py", [(
        "        yield sm.locks.acquire(owner, plan.table, LockMode.SHARED)\n"
        "        try:\n",
        "        yield sm.locks.acquire(owner, plan.table, LockMode.SHARED)\n"
        "        if num_pages == 0:\n"
        "            return\n"
        "        try:\n",
    )]),
    # The spilled sort runs dropped after the merge instead of in the
    # finally: an interrupt mid-sort leaks every run written so far.
    "IPR003": ("engine/engines/sort.py", [(
        "                yield from self.charge(packet, len(result))\n"
        "        finally:\n"
        "            # Sweeps the spilled runs on faults too; on the normal path\n"
        "            # this fires right after the merge.\n"
        "            for run in runs:\n"
        "                sm.drop_temp_file(run)\n",
        "                yield from self.charge(packet, len(result))\n"
        "                for run in runs:\n"
        "                    sm.drop_temp_file(run)\n"
        "        finally:\n"
        "            pass\n",
    )]),
    # A cell that reads its progress points from a host file when one
    # exists: the cached result depends on a file its key does not cover.
    "IPR203": ("harness/experiments.py", [
        ("\nimport random\n", "\nimport json\nimport os\nimport random\n"),
        (
            '    progress_points = spec.coord["progress_points"]\n',
            '    progress_points = spec.coord["progress_points"]\n'
            '    if os.path.exists("fig4_points.json"):\n'
            '        with open("fig4_points.json") as fh:\n'
            '            progress_points = json.load(fh)\n',
        ),
    ]),
}


def _rule_lines(tmp_path, rel, text, rule):
    # Copied under its package path: DET006 only applies under harness/.
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    findings = lint_paths([str(path)], root=str(tmp_path))
    return [f.line for f in findings if f.rule == rule]


@pytest.mark.parametrize("rule", sorted(MUTATIONS))
def test_a_kept_rule_flags_the_mutation_that_earned_it(tmp_path, rule):
    rel, edits = MUTATIONS[rule]
    source = (SRC / "repro" / rel).read_text()
    mutated = source
    for old, new in edits:
        assert mutated.count(old) == 1, (rule, old)
        mutated = mutated.replace(old, new)
    assert _rule_lines(tmp_path / "live", rel, source, rule) == []
    assert _rule_lines(tmp_path / "mutant", rel, mutated, rule) != []


def test_every_kept_rule_has_its_mutation():
    from repro.lint.core import rule_catalogue

    assert sorted(rule for rule, _doc in rule_catalogue()) == sorted(
        MUTATIONS
    )
