"""The demos run end to end: exit 0, nothing on stderr, and the operad
and nerve demo prints the pinned text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

OPERADS_AND_NERVES = """\
== operads ==
linear orders: |Ass(3)| = 6
functions on two points: |End(2)| = 16
associative operad axioms at arity 4: passed=True (2327883 instances)
free operad on one binary generator: {1: 1, 2: 1, 3: 3, 4: 15, 5: 105}
(the double factorials 1, 1, 3, 15, 105 of leaf-labelled binary trees)
free on one ternary generator: {1: 1, 3: 1, 5: 10}
the six-edge example tree generates an operad with 6 colors and 6 non-identity operations

== nerves ==
nerve(Ass) at the 3-corolla has 6 elements (3!)
nerve(Com) is a point everywhere: 1
nerve(Ass) at ((**)*) has 4 elements (pairs of binary orders: one per Segal core family)
strict Segal check for nerve(com) on 73 trees: True
strict Segal check for nerve(ass) on 73 trees: True
strict Segal check for nerve(free) on 73 trees: True

== reconstructing operads from their nerves ==
nerve then reconstruct for com: isomorphism verified on 47 instances -> True
nerve then reconstruct for ass: isomorphism verified on 367 instances -> True
nerve then reconstruct for end: isomorphism verified on 1724 instances -> True
"""


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=300
    )


def test_four_demos():
    assert [p.name for p in DEMOS] == [
        "01_trees_and_tree_maps.py",
        "02_operads_and_nerves.py",
        "03_stratification_posets.py",
        "04_connectivity_tower.py",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_cleanly(path):
    proc = run_demo(path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
    if path.name == "02_operads_and_nerves.py":
        assert proc.stdout == OPERADS_AND_NERVES
