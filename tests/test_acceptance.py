"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`; the summary lines are written
straight to the terminal so they are visible with or without capture.
"""

import itertools

import numpy as np
import pytest

from qmn import linalg
from qmn.errors import SingularPreActivation
from qmn.examples import (
    d4tilde_net,
    d4tilde_template,
    d4tilde_triple,
    quiver_a3,
    quiver_d4tilde,
    quiver_single_vertex,
    random_dag_quiver,
    random_mlp_net,
    single_vertex_net,
    thin_dims,
)
from qmn.grad import backprop, gradient_transform, train
from qmn.moduli import is_simple, project, simple_rep_exists
from qmn.network import NeuralNetwork, forward, knowledge_map, linear_map, psi_hat
from qmn.quiver import Quiver
from qmn.relu import balance, level_set_membership, momentum
from qmn.rep import Representation, act, random_gauge, random_triple, split
from qmn.thincat import ThinRep, inverse, is_invertible, tensor, unit

from conftest import ACCEPTANCE_LINES, fd_gradient, path_network_matrix, path_rank_vector


def report(num, ok, text):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def thin_weights(q, rng, lo=-2.0, hi=2.0):
    return ThinRep(q, {a.id: float(rng.uniform(lo, hi)) for a in q.arrows})


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_block_matrix_template():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = (
            *rng.standard_normal(5),
            rng.standard_normal(2),
            rng.standard_normal(2),
            rng.standard_normal(2),
            rng.standard_normal(2),
        )
        got = project(d4tilde_triple(*params)).assembled()
        worst = max(worst, linalg.rel_err(got, d4tilde_template(*params)))
    report(1, worst <= 1e-12, f"assembled coordinates match the closed-form template (max rel err {worst:.2e})")


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_gauge_invariance():
    rng = np.random.default_rng(2024)
    quivers = {
        "a3": quiver_a3(),
        "d4tilde": quiver_d4tilde(),
        "random4": random_dag_quiver(np.random.default_rng(77), n_hidden=4),
    }
    worst = 0.0
    for name, q in quivers.items():
        dims = thin_dims(q)
        for _ in range(100):
            t = random_triple(q, dims, rng)
            g = random_gauge(q, dims, rng)
            a0 = project(t).assembled()
            a1 = project(act(g, t)).assembled()
            denom = max(np.linalg.norm(a0), 1e-30)
            worst = max(worst, np.linalg.norm(a1 - a0) / denom)
    report(2, worst <= 1e-9, f"projection is gauge invariant (max Frobenius rel err {worst:.2e})")


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_simplicity_iff_full_rank(diamond_quiver, ten_arrow_quiver):
    disagreements = 0
    total = 0
    for q in (quiver_a3(), quiver_single_vertex(), diamond_quiver, ten_arrow_quiver):
        arrows = [a.id for a in q.arrows]
        full = {i: 1 for i in q.hidden}
        dims = thin_dims(q)
        for combo in itertools.product([0.0, 1.0], repeat=len(arrows)):
            t = split(Representation(q, dims, dict(zip(arrows, combo))))
            total += 1
            if is_simple(t) != (path_rank_vector(project(t)) == full):
                disagreements += 1
    report(
        3,
        disagreements == 0,
        f"sweep simplicity equals enumerated-path full-rank test on {total} exhaustive 0/1 triples",
    )


# -- 4 -----------------------------------------------------------------------


def _existence_suite():
    """Deterministic family of quivers with <= 4 hidden vertices and hidden
    dimensions in {1, 2}, covering both outcomes of the criterion."""
    suite = []
    a3 = quiver_a3()
    suite.append((a3, thin_dims(a3)))
    suite.append((a3, {"i": 1, "j": 2, "k": 1}))
    sv = quiver_single_vertex()
    suite.append((sv, thin_dims(sv)))
    suite.append((sv, {"s": 1, "v": 2, "t": 1}))
    two_in = Quiver(
        ["s1", "s2", "v", "t1", "t2"],
        [("i1", "s1", "v"), ("i2", "s2", "v"), ("o1", "v", "t1"), ("o2", "v", "t2")],
    )
    suite.append((two_in, {"s1": 1, "s2": 1, "v": 2, "t1": 1, "t2": 1}))
    for seed in range(14):
        rng = np.random.default_rng(1000 + seed)
        q = random_dag_quiver(rng, n_hidden=int(rng.integers(1, 5)))
        dims = {v: 1 for v in q.vertices}
        for i in q.hidden:
            dims[i] = int(rng.integers(1, 3))
        suite.append((q, dims))
    return suite


def test_criterion_04_existence_criterion_vs_search():
    rng = np.random.default_rng(4)
    n_true = n_false = 0
    ok = True
    detail = []
    for q, dims in _existence_suite():
        predicted = simple_rep_exists(q, dims).exists
        found = False
        for _ in range(1000):
            if is_simple(random_triple(q, dims, rng)):
                found = True
                if predicted:
                    break  # a witness settles the positive case
        if predicted:
            n_true += 1
        else:
            n_false += 1
        if found != predicted:
            ok = False
            detail.append(f"{len(q.hidden)} hidden, dims {dims}")
    report(
        4,
        ok and n_true >= 3 and n_false >= 3,
        f"existence criterion agrees with 1000-draw search on {n_true} positive / {n_false} negative instances"
        + (f"; mismatches: {detail}" if detail else ""),
    )


# -- 5 -----------------------------------------------------------------------


def _projection_jacobian_rank(q, rng, h=1e-6, threshold=1e-6):
    arrows = [a.id for a in q.arrows]
    dims = thin_dims(q)
    base = {aid: float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])) for aid in arrows}

    def coords(weights):
        t = split(Representation(q, dims, weights))
        return project(t).assembled().ravel()

    cols = []
    for aid in arrows:
        wp, wm = dict(base), dict(base)
        wp[aid] += h
        wm[aid] -= h
        cols.append((coords(wp) - coords(wm)) / (2 * h))
    jac = np.column_stack(cols)
    s = np.linalg.svd(jac, compute_uv=False)
    return int(np.sum(s > threshold * s[0]))


def test_criterion_05_moduli_dimension_via_jacobian():
    ok = True
    msgs = []
    for q, expected in ((quiver_d4tilde(), 8), (quiver_a3(), 1)):
        for seed in range(5):
            rank = _projection_jacobian_rank(q, np.random.default_rng(500 + seed))
            if rank != expected:
                ok = False
                msgs.append(f"got {rank}, want {expected} (seed {seed})")
    report(5, ok, "finite-difference Jacobian rank of the projection equals arrows minus hidden vertices" + ("; " + "; ".join(msgs) if msgs else ""))


# -- 6 -----------------------------------------------------------------------


def test_criterion_06_network_factorization():
    rng = np.random.default_rng(6)
    worst = 0.0
    for activation in ("identity", "relu", "tanh"):
        done = 0
        while done < 200:
            net = d4tilde_net(rng=rng, activation=activation)
            x = rng.standard_normal(3)
            try:
                k = knowledge_map(net, x)
            except SingularPreActivation:
                continue
            done += 1
            out, _ = forward(net, x)
            worst = max(worst, linalg.rel_err(psi_hat(k), out))
    report(6, worst <= 1e-9, f"network function factors through the knowledge map (max rel err {worst:.2e})")


# -- 7 -----------------------------------------------------------------------


def test_criterion_07_linear_operator_identity():
    worst = 0.0
    q = quiver_d4tilde()
    cases = [thin_dims(q)]
    rng = np.random.default_rng(7)
    nonthin = {v: int(rng.integers(1, 4)) for v in q.vertices}
    cases.append(nonthin)
    for dims in cases:
        for seed in range(10):
            gen = np.random.default_rng(700 + seed)
            r = Representation(
                q,
                dims,
                {a.id: gen.standard_normal((dims[a.target], dims[a.source])) for a in q.arrows},
            )
            n, want = linear_map(r), path_network_matrix(split(r))
            for col in range(n.shape[1]):
                worst = max(worst, linalg.rel_err(n[:, col], want[:, col]))
    report(7, worst <= 1e-10, f"propagation equals out . coords . in as matrices (max rel err {worst:.2e})")


# -- 8 -----------------------------------------------------------------------


def test_criterion_08_gradient_vs_finite_differences():
    rng = np.random.default_rng(8)
    worst_smooth = 0.0
    worst_relu = 0.0
    smooth_done = relu_done = 0
    while smooth_done < 34 or relu_done < 16:
        if smooth_done < 34:
            activation = "tanh" if smooth_done % 2 == 0 else "sigmoid"
            net = random_mlp_net(rng, activation=activation)
            x = rng.standard_normal(len(net.input_vertices))
            y = rng.standard_normal(len(net.output_vertices))
            got = backprop(net, x, y).weights
            want = fd_gradient(net, x, y)
            err = max(abs(got[a] - want[a]) / max(abs(want[a]), 1.0) for a in want)
            worst_smooth = max(worst_smooth, err)
            smooth_done += 1
        if relu_done < 16:
            net = random_mlp_net(rng, activation="relu")
            x = rng.standard_normal(len(net.input_vertices))
            y = rng.standard_normal(len(net.output_vertices))
            _, trace = forward(net, x)
            if trace.pre and min(abs(z) for z in trace.pre.values()) < 1e-2:
                continue
            got = backprop(net, x, y).weights
            want = fd_gradient(net, x, y)
            err = max(abs(got[a] - want[a]) / max(abs(want[a]), 1.0) for a in want)
            worst_relu = max(worst_relu, err)
            relu_done += 1
    ok = worst_smooth <= 1e-5 and worst_relu <= 1e-4
    report(8, ok, f"backprop matches central differences (smooth {worst_smooth:.2e}, relu {worst_relu:.2e})")


# -- 9 -----------------------------------------------------------------------


def test_criterion_09_opposite_quiver_equivariance():
    rng = np.random.default_rng(9)
    worst = 0.0
    for activation, positive, count in (("relu", True, 50), ("identity", False, 50)):
        for _ in range(count):
            net = random_mlp_net(rng, activation=activation)
            q = net.quiver
            hid = set(q.hidden)
            if positive:
                gauge = {v: float(np.exp(rng.uniform(-1, 1))) for v in q.hidden}
            else:
                gauge = {
                    v: float(np.exp(rng.uniform(-1, 1)) * rng.choice([-1.0, 1.0]))
                    for v in q.hidden
                }

            def gat(v):
                return gauge[v] if v in hid else 1.0

            moved = NeuralNetwork(
                ThinRep(
                    q,
                    {a.id: gat(a.target) * net.weights.weights[a.id] / gat(a.source) for a in q.arrows},
                ),
                dict(net.activations),
                net.bias,
            )
            x = rng.standard_normal(len(net.input_vertices))
            y = rng.standard_normal(len(net.output_vertices))
            lhs = backprop(moved, x, y).weights
            rhs = gradient_transform(gauge, backprop(net, x, y)).weights
            worst = max(worst, max(abs(lhs[a] - rhs[a]) / max(abs(lhs[a]), 1.0) for a in lhs))
    report(9, worst <= 1e-9, f"gradients transform as opposite-quiver representations (max rel err {worst:.2e})")


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_relu_positive_gauge_invariance():
    rng = np.random.default_rng(10)
    net = d4tilde_net(rng=rng, activation="relu")
    q = net.quiver
    hid = set(q.hidden)
    worst = 0.0
    for _ in range(20):
        gauge = {v: float(np.exp(rng.uniform(-2, 2))) for v in q.hidden}

        def gat(v):
            return gauge[v] if v in hid else 1.0

        moved = NeuralNetwork(
            ThinRep(q, {a.id: gat(a.target) * net.weights.weights[a.id] / gat(a.source) for a in q.arrows}),
            dict(net.activations),
            net.bias,
        )
        for _ in range(100):
            x = rng.standard_normal(3)
            o1, _ = forward(net, x)
            o2, _ = forward(moved, x)
            worst = max(worst, float(np.max(np.abs(o1 - o2)) / max(np.max(np.abs(o1)), 1.0)))
    report(10, worst <= 1e-10, f"relu outputs invariant under positive hidden scalings (max rel err {worst:.2e})")


# -- 11 ----------------------------------------------------------------------


def test_criterion_11_single_vertex_momentum_and_balance():
    t_zero = single_vertex_net(1.0, 1.0).weights.to_triple()
    in_zero_level = level_set_membership(t_zero, 0.0).all_member()
    t_one = single_vertex_net(np.sqrt(2.0), 1.0).weights.to_triple()
    in_one_level = level_set_membership(t_one, 1.0).all_member()

    res = balance(single_vertex_net(4.0, 1.0).weights.to_triple(), 0.0)
    gauge_val = float(res.gauge["v"][0, 0])
    gauge_ok = abs(gauge_val - 0.5) <= 1e-8

    net = single_vertex_net(4.0, 1.0)
    balanced = single_vertex_net(res.triple.f["v"][0, 0], res.triple.h["v"][0, 0])
    rng = np.random.default_rng(11)
    preserved = all(
        np.allclose(forward(net, [x])[0], forward(balanced, [x])[0], atol=1e-10)
        for x in rng.standard_normal(50)
    )
    ok = in_zero_level and in_one_level and gauge_ok and preserved
    report(
        11,
        ok,
        f"momentum level sets and balancing behave on the one-vertex example (gauge {gauge_val:.9f})",
    )


# -- 12 ----------------------------------------------------------------------


def test_criterion_12_monoidal_laws_and_invertibility():
    q = quiver_d4tilde()
    rng = np.random.default_rng(12)
    exact = True

    def dyadic(_q):
        # small dyadic weights keep every product exactly representable, so the
        # laws can be asserted with == rather than a tolerance
        return ThinRep(_q, {a.id: float(rng.integers(-8, 9)) / 4.0 for a in _q.arrows})

    for _ in range(100):
        x, y, z = (dyadic(q) for _ in range(3))
        exact &= tensor(tensor(x, y), z).weights == tensor(x, tensor(y, z)).weights
        exact &= tensor(x, y).weights == tensor(y, x).weights
        exact &= tensor(x, unit(q)).weights == x.weights
        exact &= tensor(unit(q), x).weights == x.weights

    # the exhaustive sweep runs on an 8-arrow quiver
    eight = Quiver(
        ["s", "p", "q1", "q2", "r", "t", "t2"],
        [
            ("sp", "s", "p"),
            ("pq1", "p", "q1"),
            ("pq2", "p", "q2"),
            ("q1r", "q1", "r"),
            ("q2r", "q2", "r"),
            ("rt", "r", "t"),
            ("pt2", "p", "t2"),
            ("rt2", "r", "t2"),
        ],
    )
    values = (0.0, 1.0, -1.0, 2.0)
    arrows = [a.id for a in eight.arrows]
    inv_ok = True
    for combo in itertools.product(values, repeat=len(arrows)):
        t = ThinRep(eight, dict(zip(arrows, combo)))
        should = all(v != 0.0 for v in combo)
        if is_invertible(t) != should:
            inv_ok = False
            break
        if should and tensor(t, inverse(t)).weights != unit(eight).weights:
            inv_ok = False
            break
    report(12, exact and inv_ok, "tensor laws exact on 100 samples; invertibility exhaustive over 4^8 weight patterns")


# -- 13 ----------------------------------------------------------------------


def test_criterion_13_training_sanity():
    net = single_vertex_net(1.0, 1.0, activation="identity")
    data = [(np.array([x]), np.array([2.0 * x])) for x in (1.0, 2.0)]
    fact_ok = True

    def on_epoch(epoch, current, value):
        nonlocal fact_ok
        for x, _ in data:
            out, _ = forward(current, x)
            try:
                k = knowledge_map(current, x)
            except SingularPreActivation:
                continue
            if linalg.rel_err(psi_hat(k), out) > 1e-9:
                fact_ok = False

    result = train(net, data, "mse", lr=0.05, epochs=500, on_epoch=on_epoch)
    reached = [i for i, v in enumerate(result.losses) if v < 1e-6]
    ok = bool(reached) and reached[0] <= 500 and fact_ok
    report(
        13,
        ok,
        f"one-vertex fit reaches loss < 1e-6 at epoch {reached[0] if reached else 'never'} with factorization intact",
    )
