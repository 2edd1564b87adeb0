"""Every figure's SMOKE render, frozen (ROADMAP aim 2, item 5(b)).

``benchmarks/out/`` holds reduced sweeps and only Figure 8's is compared
in CI; this module pins what ``python -m repro.harness <name> --scale
smoke --jobs 1`` prints for *every* entry of the figure table, plus
``recovery --fault-seed 1`` and ``scaleout --hosts 4``, so the table can
be re-declared with nothing rendered moving.  The digest is over stdout
exactly as the CLI prints it, minus the host-clock ``[... wall]`` and
pool ``[cells: ...]`` lines and the blank lines that trail them.

The hashes are constants of the code.  A change that moves one is a
change to a simulated result and says so; to re-record, run this file
as a module (``PYTHONPATH=src python -m tests.test_figure_renders``).
"""

import contextlib
import hashlib
import io

import pytest

from repro.harness.__main__ import main

CASES = {
    name: [name]
    for name in (
        "fig1a", "fig1b", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12",
        "fig13", "overhead", "fold", "ablation-policies", "ablation-replay",
        "ablation-wraparound", "ablation-late-activation", "scaleout",
    )
}
CASES["recovery --fault-seed 1"] = ["recovery", "--fault-seed", "1"]
CASES["scaleout --hosts 4"] = ["scaleout", "--hosts", "4"]

RENDERS = {
    'fig1a':
        '6ada0822f09bffe26af442714d10effcaffc2d8d00427053c7ef5f1e96d4d629',
    'fig1b':
        '6c3553d07d0c260be9ffbdad357d52d6b9993c3b3aa08cbaaca9da83a85e7162',
    'fig4':
        'c5197a51e05cd2d70c61d9abe56635704ed44e544382b8fd0788312ca9b068dd',
    'fig8':
        '44429af314fadf638b3c6ad2a3ba05fdcac21b6013e5f11f5a587d2d742b71cf',
    'fig9':
        '886738ef9ed8192816bb60d06bc57a3b398551d2fa011c427c8e27bc88608504',
    'fig10':
        'f2e2e5afde69b919996820483786095f582fbacb7fa3a5630016559d51e4c20e',
    'fig11':
        'ea6df91716e558df675df42fbe1e9bfaf9bba5bf0f06fa6c92467fb12cedc2e6',
    'fig12':
        '6f96957ac07d650398d8084fd7084b0e37efa8672b9e6887eb17e60458d37a10',
    'fig13':
        'e2837b879b58075c180e633a6252f16e558a8acf5c216abbac21aa3794413146',
    'overhead':
        '989699a99eed28378d52772d21fd2edeb6d61c8258ca22928b8d897eb978c6d2',
    'fold':
        'b90d4a409cbdbc5c2d4d7a0ff60db21ad4b7313064fec67461c39afdc6d489ee',
    'ablation-policies':
        'f4b42b913b442a98d8af50f9fc699e60af5aabfc9efca16e8f2885b90ca115a5',
    'ablation-replay':
        '618b67618c685dbc2446463ca4549a2f8f794e24439b34058df7fb57e3e95c95',
    'ablation-wraparound':
        '375fa7dbe7fd39c3e5322c475f1362b766c4a731a8daeb744ad88c663ac6ef0f',
    'ablation-late-activation':
        'e1d787d4be2aea8839fa61a82a4f351055d940817134371ae9cc04b97c4eb08e',
    'scaleout':
        'd4fa8f6ba4375f7662a1f8b54673c1dafd4b4467ae657d09eeeaa54d21213796',
    'recovery --fault-seed 1':
        '2b02a87a2b3e33b3bb84342bf7eb181a03663fbb996be30515a6a2da5c58b614',
    'scaleout --hosts 4':
        '971fa1b2507b874f7d52e6bb33b27c3ddc84d09d28c6783186586c6f5731178f',
}


def render(case):
    out = io.StringIO()
    argv = CASES[case] + ["--scale", "smoke", "--jobs", "1"]
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    kept = [
        line for line in out.getvalue().splitlines()
        if not (line.startswith("[cells: ") or line.endswith(" wall]"))
    ]
    return "\n".join(kept).rstrip("\n") + "\n"


def digest(case):
    return hashlib.sha256(render(case).encode("utf-8")).hexdigest()


def test_every_figure_of_the_table_is_pinned():
    from repro.harness import FIGURES

    assert set(FIGURES) <= {argv[0] for argv in CASES.values()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_smoke_render_is_exactly_the_recorded_one(case):
    assert digest(case) == RENDERS[case], render(case)


if __name__ == "__main__":
    print("RENDERS = {")
    for case in CASES:
        print(f"    {case!r}:\n        {digest(case)!r},")
    print("}")
