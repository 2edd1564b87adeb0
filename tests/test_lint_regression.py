"""Regression guard: the lock-escape bug class stays caught.

Re-introduces, in a temp module, the two historical bug shapes fixed by
hand before simlint existed -- a dropped yielding call and an
interrupt-unsafe lock acquire -- and pins the exact rule ID and line
number the analyzer reports, plus that the repaired version lints
clean.  The dropped ``sim.timeout(1)`` is not a lint finding: no rule
for it is kept, because a dropped wait moves virtual time and tier-1's
pinned schedules and renders catch that (DESIGN section 9).
"""

import textwrap
from pathlib import Path

from repro.lint import lint_paths

BUGGY = textwrap.dedent("""\
    def drain(sim, channel, lock):
        yield lock.acquire()
        while True:
            item = yield channel.get()
            if item is None:
                break
            sim.timeout(1)
        lock.release()
""")

FIXED = textwrap.dedent("""\
    def drain(sim, channel, lock):
        yield lock.acquire()
        try:
            while True:
                item = yield channel.get()
                if item is None:
                    break
                yield sim.timeout(1)
        finally:
            lock.release()
""")


def _lint(tmp_path: Path, source: str):
    path = tmp_path / "drain.py"
    path.write_text(source)
    return lint_paths([str(path)], root=str(tmp_path))


def test_reintroduced_bugs_are_reported_with_exact_positions(tmp_path):
    findings = _lint(tmp_path, BUGGY)
    # Line 2: acquire whose release (line 8) is not in a finally, so an
    # interrupt at the channel.get() on line 4 leaks the lock.
    assert [(f.rule, f.line) for f in findings] == [("IPR001", 2)], [
        f.render() for f in findings
    ]


def test_fixed_module_is_clean(tmp_path):
    assert _lint(tmp_path, FIXED) == []
