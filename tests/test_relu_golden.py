"""The bits of `relu.balance`, pinned: gauges, step counts and residuals of
seeded positive thin triples, recorded as `repr(float)` in
tests/data/relu_balance_golden.json and compared exactly.  A change that
reorders a sum in the Newton iteration shows here before it shows anywhere
else.  `PYTHONPATH=src python tests/test_relu_golden.py` rewrites the file
from the current code."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import layered_quiver

from qmn.examples import random_dag_quiver
from qmn.relu import balance
from qmn.thincat import ThinRep

GOLDEN = Path(__file__).resolve().parent / "data" / "relu_balance_golden.json"


def _positive(q, rng):
    return ThinRep(q, {a.id: float(rng.uniform(0.5, 2.0)) for a in q.arrows}).to_triple()


def cases():
    """(name, triple, target) of every pinned run: the layered 8-16-16-4
    quiver, random DAGs with 1-6 hidden vertices, and 13 layers of width 4.
    Seeds 4 and 29 of the layered quiver draw weights whose scalar square
    differs in the last bit from numpy's array square, so `balance` must
    keep squaring each weight as a scalar."""
    for seed in (0, 4, 29):
        for target in (0.0, 1.0):
            t = _positive(layered_quiver([8, 16, 16, 4]), np.random.default_rng(seed))
            yield f"layered-8-16-16-4/seed{seed}/target{target}", t, target
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        q = random_dag_quiver(rng, n_hidden=1 + seed % 6)
        target = float(seed % 2)
        yield f"random-dag/seed{100 + seed}/target{target}", _positive(q, rng), target
    for target in (0.0, 1.0):
        t = _positive(layered_quiver([4] * 13), np.random.default_rng(13))
        yield f"layered-4x13/seed13/target{target}", t, target


def record(t, target):
    res = balance(t, target)
    return {
        "gauge": {i: repr(float(g[0, 0])) for i, g in res.gauge.items()},
        "sweeps": res.sweeps,
        "residual": repr(res.residual),
    }


CASES = list(cases())


@pytest.mark.parametrize("name, t, target", CASES, ids=[name for name, _, _ in CASES])
def test_balance_bits_match_golden(name, t, target):
    assert record(t, target) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: record(t, target) for name, t, target in CASES}, indent=1) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
