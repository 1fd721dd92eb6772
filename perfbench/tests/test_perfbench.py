"""Tests of the benchmark itself: the generator is deterministic, every gate
rejects a planted wrong answer, budgets turn a hang into a recorded timeout.

    python3 -m pytest perfbench/tests -q
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from qmn import grad, moduli, network, rep  # noqa: E402

from qbench import gates, gen, report, workloads  # noqa: E402
from qbench.trace import NULL, Tracer  # noqa: E402

SEED = 5


def files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    gen.write_inputs(name, SEED, tmp_path / "a")
    gen.write_inputs(name, SEED, tmp_path / "b")
    gen.write_inputs(name, SEED + 1, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")


@pytest.mark.parametrize("name", ["moduli-deep", "moduli-dense", "relu-balance"])
def test_items_depend_only_on_seed_and_index(tmp_path, name):
    qj = gen.quiver_json(name)
    for tag, k in (("a", 3), ("b", 3), ("c", 4)):
        gen.item(name, SEED, k, qj, tmp_path / tag)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert (tmp_path / "a").read_bytes() != (tmp_path / "c").read_bytes()


def ready(tmp_path, name):
    gen.write_inputs(name, SEED, tmp_path)
    wl = workloads.WORKLOADS[name](tmp_path, SEED)
    wl.setup(NULL)
    return wl


def test_moduli_deep_gate_rejects_perturbed_block(tmp_path):
    wl = ready(tmp_path, "moduli-deep")
    truth = gen.item(wl.name, SEED, 0, wl.qj)
    out = wl.op(wl.t0, NULL)
    assert wl.gate(wl.t0, truth, out) == []
    m = moduli.project(wl.t0)
    p = next(iter(m.blocks))
    m.blocks[p] = m.blocks[p] + 1e-6
    a, rv, s = out
    assert wl.gate(wl.t0, truth, (m.assembled(), rv, s))
    assert wl.gate(wl.t0, truth, (a, rv, not s))


def test_moduli_dense_gate_rejects_perturbed_block(tmp_path):
    wl = ready(tmp_path, "moduli-dense")
    truth = gen.item(wl.name, SEED, 0, wl.qj)
    m, rv, s, c = wl.op(wl.t0, NULL)
    assert wl.gate(wl.t0, truth, (m, rv, s, c)) == []
    p = next(iter(m.blocks))
    m.blocks[p] = m.blocks[p] * (1 + 1e-6)
    fails = wl.gate(wl.t0, truth, (m, rv, s, c))
    assert any("act(g, t)" in f for f in fails)
    assert any("closed_orbit" in f for f in fails)


def test_moduli_dense_gate_rejects_wrong_rank(tmp_path):
    wl = ready(tmp_path, "moduli-dense")
    truth = gen.item(wl.name, SEED, 0, wl.qj)
    m, rv, s, c = wl.op(wl.t0, NULL)
    wrong = {i: 0 for i in rv} if s else wl.t0.hidden_dims()
    assert wl.gate(wl.t0, truth, (m, wrong, s, c))


def mlp_final_inputs(tmp_path):
    wl = ready(tmp_path, "train-mlp")
    net = wl.net
    arrows = [a.id for a in net.quiver.arrows][::300]
    per_sample = [grad.backprop(net, x, y).weights for x, y in wl.data]
    grads = {a: float(np.mean([g[a] for g in per_sample])) for a in arrows}
    x = np.linspace(-1.0, 1.0, len(net.input_vertices))
    psi = network.psi_hat(network.knowledge_map(net, x))
    return dict(losses=[2.0, 1.0], weights=dict(net.weights.weights), grads=grads,
                samples=wl.data, arrows=arrows, psi=psi, probe_x=x)


def test_train_gate_rejects_sign_flipped_gradient(tmp_path):
    kw = mlp_final_inputs(tmp_path)
    assert gates.mlp_final(**kw) == []
    flipped = dict(kw, grads={a: -g for a, g in kw["grads"].items()})
    assert gates.mlp_final(**flipped)


def test_train_gate_rejects_rising_loss_broken_factorization_and_nan(tmp_path):
    kw = mlp_final_inputs(tmp_path)
    assert gates.mlp_final(**dict(kw, losses=[1.0, 1.0]))
    assert gates.mlp_final(**dict(kw, psi=kw["psi"] + 1e-6))
    assert gates.epoch_loss(float("nan"))
    assert gates.epoch_loss(1.5) == []


def test_relu_gate_rejects_triple_off_level_and_negative_gauge(tmp_path):
    wl = ready(tmp_path, "relu-balance")
    truth = gen.item(wl.name, SEED, 0, wl.qj)
    res = wl.op(wl.t0, NULL)
    assert wl.gate(wl.t0, truth, res) == []
    v = wl.q.hidden[3]
    off = dict(res.gauge)
    off[v] = off[v] * 1.01
    moved = rep.act(off, wl.t0)
    fails = wl.gate(wl.t0, truth, workloads.relu.BalanceResult(off, moved, res.sweeps, res.residual))
    assert any("momentum" in f for f in fails)
    negative = dict(res.gauge)
    negative[v] = -negative[v]
    fails = wl.gate(wl.t0, truth, workloads.relu.BalanceResult(
        negative, rep.act(negative, wl.t0), res.sweeps, res.residual))
    assert any("not positive" in f for f in fails)


def test_budget_turns_a_slow_run_into_a_timeout(tmp_path):
    wl = ready(tmp_path, "moduli-deep")
    run = wl.run(seconds=10.0, budget=0.05, tracer=NULL)
    assert run.timeout
    e2e, info = report.end_to_end(run, 1.0, budget=0.05)
    assert info["attempted"] == wl.min_ops
    assert info["failed"] == info["attempted"] - sum(o.ok for o in run.ops)
    assert e2e["ok_ratio"] < 1.0
    assert math.isfinite(e2e["op_tail_ms"])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert report.tail_percentile(19) is None
    for n in (20, 40, 100, 150, 200, 1000, 5000):
        p = report.tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= report.TAIL_BEYOND
    assert report.tail_percentile(workloads.MIN_OPS) == 90
    assert report.tail_percentile(5000) == 90


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.begin("bench.op", op=0)
    tr.call("moduli.project", sum, range(10000))
    tr.end()
    self_ms = tr.self_ms_per_op({0})
    total = 1000.0 * tr.durations("bench.op")[0]
    assert set(self_ms) == {"bench", "moduli"}
    assert self_ms["bench"] + self_ms["moduli"] == pytest.approx(total)
    assert self_ms["moduli"] == pytest.approx(1000.0 * tr.durations("moduli.project")[0])


def test_refuses_to_run_without_qmn_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moduli-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
