"""Every script under demos/ runs to completion and prints exactly its
pinned output, whatever the hash seed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; two of them print seminormal coefficients
STDOUT_SHA256 = {
    "canonical_basis_walkthrough":
        "78faaaf9776455712af2ebdff2ce2ab8c755dea1ac27c4180957d87a6bf84000",
    "decomposition_matrix":
        "8acb80380ee958a0adf5efb3be6e55e294efba25c17a704c2d7d2dbae8c9803b",
    "seminormal_worked_example":
        "326df8d2f52fff0611cbc0ace27bcbe723f3a11c2c946de7f79ae3bb5ad01f18",
    "weight_space_ranks":
        "c13f35bb57b73881432c1a6061dc31016b82085c4e66a0b6af4822843023aa58",
}


def test_demos_found():
    assert DEMOS
    assert sorted(STDOUT_SHA256) == [path.stem for path in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        STDOUT_SHA256[script.stem]
