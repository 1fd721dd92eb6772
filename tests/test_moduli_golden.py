"""The bytes of `qmn moduli coords`, pinned: the stdout of every format, with
and without --assembled, on two committed representation files, recorded in
tests/data/moduli_coords_golden.json and compared exactly.

- tests/data/moduli_coords_d4tilde.json is the extended-D4 triple
  `d4tilde_triple(2, -1, 3, 0.5, 1.5, [1, 2], [-1, 1], [1, -2], [0.5, 1])`;
- tests/data/moduli_coords_dag.json is the 5-hidden-vertex
  `random_dag_quiver` of seed 1, hidden dims 1-3, four framed-out vertices
  and integer weights in -3..3.

Every weight is a small integer or dyadic, so every sum the coordinates form
is exact and the bytes do not depend on the BLAS.  A change to the order of
the blocks, their values or the printing shows here.
`PYTHONPATH=src python tests/test_moduli_golden.py` rewrites the golden file
from the current code."""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qmn.cli import main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "moduli_coords_golden.json"
INPUTS = ("moduli_coords_d4tilde.json", "moduli_coords_dag.json")
RUNS = [(name, fmt, assembled) for name in INPUTS for fmt in ("json", "csv", "table") for assembled in (False, True)]


def key(name, fmt, assembled):
    return f"{name}/{fmt}" + ("/assembled" if assembled else "")


def stdout_of(name, fmt, assembled):
    argv = ["--format", fmt, "moduli", "coords", "--rep", str(DATA / name)] + ["--assembled"] * assembled
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("name, fmt, assembled", RUNS, ids=[key(*run) for run in RUNS])
def test_moduli_coords_bytes_match_golden(name, fmt, assembled):
    assert stdout_of(name, fmt, assembled) == json.loads(GOLDEN.read_text())[key(name, fmt, assembled)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key(*run): stdout_of(*run) for run in RUNS}, indent=1) + "\n")
    sys.exit(0)
