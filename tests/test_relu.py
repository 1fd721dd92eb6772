import math
import warnings

import numpy as np
import pytest
from conftest import balance_reference, layered_quiver, reference_act
from hypothesis import given, settings, strategies as st

from qmn.errors import NoConvergence, ShapeMismatch
from qmn.examples import d4tilde_triple, quiver_d4tilde, random_dag_quiver, single_vertex_net
from qmn.network import forward
from qmn.relu import EPS, ROUNDING_FLOOR, balance, level_set_membership, momentum
from qmn.rep import act, random_triple
from qmn.thincat import ThinRep


def sv_triple(f, h):
    return single_vertex_net(f, h, activation="relu").weights.to_triple()


def test_momentum_single_vertex_examples():
    assert momentum(sv_triple(1.0, 1.0)).scalars()["v"] == pytest.approx(0.0)
    assert momentum(sv_triple(math.sqrt(2.0), 1.0)).scalars()["v"] == pytest.approx(1.0)
    assert momentum(sv_triple(3.0, 2.0)).scalars()["v"] == pytest.approx(5.0)


def test_momentum_zero_triple():
    t = sv_triple(0.0, 0.0)
    assert momentum(t).scalars()["v"] == 0.0


def test_momentum_d4tilde_all_ones():
    t = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    mu = momentum(t).scalars()
    assert mu == pytest.approx({"v1": 1.0, "v2": 1.0, "v3": 0.0, "v4": -1.0, "v5": 0.0})


def test_level_set_membership_examples():
    r0 = level_set_membership(sv_triple(1.0, 1.0), 0.0)
    assert r0.all_member()
    r1 = level_set_membership(sv_triple(math.sqrt(2.0), 1.0), 1.0)
    assert r1.all_member()
    r = level_set_membership(sv_triple(3.0, 2.0), 0.0)
    assert not r.membership["v"] and r.residuals["v"] == pytest.approx(5.0)
    r = level_set_membership(sv_triple(3.0, 2.0), 1.0)
    assert not r.membership["v"] and r.residuals["v"] == pytest.approx(4.0)


def test_momentum_nonthin_is_symmetric_matrix_valued():
    q = quiver_d4tilde()
    dims = {v: 2 if v in ("v1", "v3") else 1 for v in q.vertices}
    t = random_triple(q, dims, np.random.default_rng(0))
    mu = momentum(t)
    for i, m in mu.values.items():
        assert m.shape == (t.dims[i], t.dims[i])
        assert np.allclose(m, m.T)
    with pytest.raises(ShapeMismatch):
        mu.scalars()


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[st.sampled_from([-1.0, 1.0]) for _ in range(5)]))
def test_momentum_invariant_under_sign_gauge(signs):
    t = d4tilde_triple(0.3, -1.2, 0.7, 2.0, -0.4, [1.0, 0.5], [-0.3, 1.1], [0.9, -0.2], [0.4, 0.8])
    g = {v: np.array([[s]]) for v, s in zip(t.quiver.hidden, signs)}
    mu0 = momentum(t).scalars()
    mu1 = momentum(act(g, t)).scalars()
    for i in mu0:
        assert mu1[i] == pytest.approx(mu0[i], abs=1e-12)


def test_balance_single_vertex_four_one():
    res = balance(sv_triple(4.0, 1.0), 0.0)
    assert float(res.gauge["v"][0, 0]) == pytest.approx(0.5, abs=1e-8)
    assert res.triple.f["v"][0, 0] == pytest.approx(2.0)
    assert res.triple.h["v"][0, 0] == pytest.approx(2.0)
    assert momentum(res.triple).scalars()["v"] == pytest.approx(0.0, abs=1e-8)


def test_balance_fixpoint_when_already_balanced():
    res = balance(sv_triple(2.0, 2.0), 0.0)
    assert float(res.gauge["v"][0, 0]) == pytest.approx(1.0)


def test_balance_unreachable_level():
    res = balance(sv_triple(1.0, 0.0), 1.0)
    assert float(res.gauge["v"][0, 0]) == pytest.approx(1.0)
    # mu = f^2 s > target for every s > 0: |mu - target| / M stays >= 1, also
    # once f^2 s underflows
    for f, target in ((1.0, 0.0), (1.0, -1.0), (1e-160, 0.0)):
        with pytest.raises(NoConvergence):
            balance(sv_triple(f, 0.0), target)


def test_balance_tol_bounds_a_stalled_residual():
    """Without weights the momentum stays 0, so a target of 1e-9 stalls at
    residual 1e-9: within the default tol, beyond tol = 0."""
    res = balance(sv_triple(0.0, 0.0), 1e-9)
    assert res.residual == pytest.approx(1e-9) and res.gauge["v"][0, 0] == 1.0
    with pytest.raises(NoConvergence):
        balance(sv_triple(0.0, 0.0), 1e-9, tol=0.0)


def test_balance_non_finite_residual_is_not_converged():
    """|f|^2 or an arrow's square overflows: the residual is inf, not passed
    as zero, and the overflow is no warning (a finite weight is valid input)."""
    q = layered_quiver([1, 1, 1, 1])
    deep = ThinRep(q, {a.id: 1e200 if a.id == "L1_0>L2_0" else 1.0 for a in q.arrows}).to_triple()
    for t in (sv_triple(1e200, 1.0), deep):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence) as failed:
                balance(t, 0.0)
        assert failed.value.residual == math.inf


def test_balance_fails_fast_at_a_vertex_without_weights():
    """Without weights mu_i stays 0: a target beyond tol and the rounding
    floor fails before the first step, with |target| as the residual; a
    target within them passes with no step."""
    for target in (1.0, -1e-6):
        with pytest.raises(NoConvergence) as failed:
            balance(sv_triple(0.0, 0.0), target)
        assert (failed.value.iterations, failed.value.residual) == (0, abs(target))
    res = balance(sv_triple(0.0, 0.0), 0.0)
    assert (res.sweeps, res.residual, float(res.gauge["v"][0, 0])) == (0, 0.0, 1.0)


@pytest.mark.parametrize("target", [0.0, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_balance_d4tilde_generic(seed, target):
    rng = np.random.default_rng(seed)
    q = quiver_d4tilde()
    weights = {a.id: float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])) for a in q.arrows}
    t = ThinRep(q, weights).to_triple()
    res = balance(t, target)
    report = level_set_membership(res.triple, target)
    assert report.all_member()
    for i, g in res.gauge.items():
        assert g[0, 0] > 0


def test_balance_preserves_relu_function():
    rng = np.random.default_rng(7)
    net = single_vertex_net(4.0, 1.0, activation="relu")
    res = balance(net.weights.to_triple(), 0.0)
    balanced = single_vertex_net(
        res.triple.f["v"][0, 0], res.triple.h["v"][0, 0], activation="relu"
    )
    for _ in range(100):
        x = rng.standard_normal(1)
        o1, _ = forward(net, x)
        o2, _ = forward(balanced, x)
        assert np.allclose(o1, o2, atol=1e-10)


def test_balance_preserves_relu_function_d4tilde():
    from qmn.examples import d4tilde_net
    from qmn.rep import join

    rng = np.random.default_rng(8)
    net = d4tilde_net(
        weights={a.id: float(rng.uniform(0.5, 2.0)) for a in quiver_d4tilde().arrows},
        activation="relu",
    )
    res = balance(net.weights.to_triple(), 0.0)
    rebuilt = join(res.triple)
    from qmn.examples import d4tilde_net as mknet

    net2 = mknet(
        weights={aid: float(m[0, 0]) for aid, m in rebuilt.matrices.items()},
        activation="relu",
    )
    for _ in range(100):
        x = rng.standard_normal(3)
        o1, _ = forward(net, x)
        o2, _ = forward(net2, x)
        assert np.allclose(o1, o2, atol=1e-10)


def test_balance_rejects_nonthin():
    q = quiver_d4tilde()
    dims = {v: 2 if v == "v3" else 1 for v in q.vertices}
    t = random_triple(q, dims, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        balance(t, 0.0)


def vertex_masses(t):
    """M_i: the sum of the magnitudes of the terms of the thin momentum mu_i."""
    hq = t.quiver.hidden_quiver()
    mass = {i: float(np.sum(t.f[i] ** 2) + np.sum(t.h[i] ** 2)) for i in t.quiver.hidden}
    for a in hq.arrows:
        w2 = float(t.hidden_matrices[a.id][0, 0] ** 2)
        mass[a.source] += w2
        mass[a.target] += w2
    return mass


def positive_layered_triple(widths, rng, weight):
    q = layered_quiver(widths)
    return ThinRep(q, {a.id: weight(rng) for a in q.arrows}).to_triple()


@st.composite
def positive_thin_triples(draw):
    """Thin triples with weights in [0.5, 2] on a random DAG with 1-6 hidden
    vertices or on a layered quiver with 1-3 hidden layers of width 1-4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 6)))
    else:
        q = layered_quiver(draw(st.lists(st.integers(1, 4), min_size=3, max_size=5)))
    return ThinRep(q, {a.id: float(rng.uniform(0.5, 2.0)) for a in q.arrows}).to_triple()


@settings(max_examples=200, deadline=None)
@given(positive_thin_triples(), st.sampled_from([0.0, 1.0]))
def test_balance_matches_coordinate_descent_reference(t, target):
    res = balance(t, target)
    assert level_set_membership(res.triple, target).all_member()
    ref = balance_reference(t, target, tol=1e-12)
    for i in t.quiver.hidden:
        g, want = float(res.gauge[i][0, 0]), float(ref.gauge[i][0, 0])
        assert g > 0.0 and abs(g - want) <= 1e-7 * want


@settings(max_examples=200, deadline=None)
@given(positive_thin_triples(), st.sampled_from([0.0, 1.0]))
def test_balanced_triple_is_its_gauge_acting_bit_for_bit(t, target):
    """`balance` moves t by its own stacked gauge; that is `act` on the gauge
    dict it returns, and the per-arrow reference, to the last bit."""
    res = balance(t, target)
    assert res.triple == act(res.gauge, t) == reference_act(res.gauge, t)


def test_balance_badly_scaled_weights():
    """Weights spread over 10^+-4 (squares up to 1e8): the residual meets the
    rounding floor near 1e-7, above the absolute tol, yet the gauge balances."""
    rng = np.random.default_rng(5)
    t = positive_layered_triple([32, 128, 128, 16], rng, lambda r: 10 ** r.uniform(-4, 4))
    res = balance(t, 0.0)
    mu, mass = momentum(res.triple).scalars(), vertex_masses(res.triple)
    assert max(abs(m) for m in mu.values()) > 1e-8  # beyond an absolute 1e-8
    for i, m in mu.items():
        assert abs(m) <= ROUNDING_FLOOR * EPS * mass[i]
        assert res.gauge[i][0, 0] > 0.0


@pytest.mark.parametrize("target", [0.0, 1.0])
def test_balance_deep_narrow_quiver_takes_few_newton_steps(target):
    """13 layers of width 4: cyclic coordinate descent takes hundreds of
    sweeps here; Newton's step count does not grow with depth."""
    rng = np.random.default_rng(13)
    t = positive_layered_triple([4] * 13, rng, lambda r: r.uniform(0.5, 2.0))
    res = balance(t, target)
    assert res.sweeps <= 20
    assert level_set_membership(res.triple, target).all_member()
