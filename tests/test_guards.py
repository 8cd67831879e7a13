"""Input guards raise ValueError, so they hold under ``python -O`` too, and
the package has no ``assert`` statement that ``-O`` would strip.  A traced
benchmark run still reports every per-layer metric the benchmark declares."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
from spechtmod.fock import FockVector, divided_f
from spechtmod.seminormal import SeminormalVector
from spechtmod.tableaux import (from_rows, ladder_class_of_shape,
                                ladder_orbit_positions, reduced_word)
row, hook = from_rows([[1, 2, 3]]), from_rows([[1, 2], [3]])
for call in (lambda: FockVector(3, {(5,): 1}),
             lambda: divided_f(0, 0, FockVector.vacuum(), 3),
             lambda: SeminormalVector((2, 1), {row: 1}),
             lambda: SeminormalVector.unit(row) + SeminormalVector.unit(hook),
             lambda: reduced_word((1, 1, 2)),
             lambda: reduced_word((2, 1), "bogus"),
             lambda: ladder_class_of_shape((2, 1), (2, 2), 3),
             lambda: ladder_orbit_positions((2, 1), 3, target=(2, 2))):
    try:
        call()
    except ValueError:
        continue
    raise SystemExit("guard did not raise ValueError")
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return env


def test_guards_survive_optimized_mode():
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    """The benchmark runner leaves out the metrics of a traced name the
    program no longer defines, and the counts of a sized result that changed
    shape, so a traced run can lose metrics and still exit 0."""
    spans = tmp_path / "spans.bin"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
         "verify", "--p", "5", "--n", "16", "--jobs", "1"],
        cwd=ROOT, env=_env(), capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    header, cols = run.read_spans(spans)
    assert header["missing"] == []
    stats, _rows, _traced_total = run.layer_table(header, cols)
    metrics = run.layer_metrics(stats, set(header["missing"]),
                                len(proc.stdout))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | {"trace.overhead_s"} == {m["name"] for m in declared}


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted((ROOT / "src" / "spechtmod").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
