"""Input guards raise ValueError, so they hold under ``python -O`` too, and
the package has no ``assert`` statement that ``-O`` would strip."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
from spechtmod.fock import FockVector
from spechtmod.partitions import add_node
from spechtmod.seminormal import SeminormalVector
from spechtmod.tableaux import from_rows, reduced_word
row, hook = from_rows([[1, 2, 3]]), from_rows([[1, 2], [3]])
for call in (lambda: FockVector(3, {(5,): 1}),
             lambda: add_node((2, 1), (1, 4)),
             lambda: SeminormalVector((2, 1), {row: 1}),
             lambda: SeminormalVector.unit(row) + SeminormalVector.unit(hook),
             lambda: FockVector.basis((1,)) + FockVector(2),
             lambda: reduced_word((1, 1, 2))):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("guard did not raise ValueError")
"""


def test_guards_survive_optimized_mode():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted((ROOT / "src" / "spechtmod").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
