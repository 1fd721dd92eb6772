"""Smoke tests of the example scripts: each runs in a fresh interpreter with
the package on PYTHONPATH and prints its summary lines."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_train_trajectory_script():
    out = run_script("train_trajectory.py", "--epochs", "5")
    assert re.search(r"^loss: \S+ -> \S+ over 5 epochs$", out, re.M)
    assert re.search(r"^factorization residual stayed below \S+ on 5 checked epochs$", out, re.M)


def test_run_d4tilde_script():
    out = run_script("run_d4tilde.py", "--seed", "7")
    assert "rank vector: {'v1': 1, 'v2': 1, 'v3': 1, 'v4': 1, 'v5': 1}" in out
    assert re.search(r"^factorization residual at a random input: \S+$", out, re.M)
    assert re.search(r"^balanced in \d+ sweeps, residual \S+$", out, re.M)
