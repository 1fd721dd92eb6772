import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmn import linalg
from qmn.errors import QuiverMismatch, ShapeMismatch
from qmn.examples import quiver_a3, quiver_d4tilde, quiver_single_vertex, random_dag_quiver, thin_dims
from qmn.moduli import is_semistable, is_simple, project
from qmn.quiver import Quiver
from qmn.rep import act, join, random_gauge
from qmn.thincat import (
    ThinRep,
    check_morphism,
    inverse,
    is_invertible,
    solve_morphism,
    tensor,
    unit,
)

A3 = quiver_a3()
D4 = quiver_d4tilde()


def rand_thin(q, rng, lo=-2.0, hi=2.0):
    return ThinRep(q, {a.id: float(rng.uniform(lo, hi)) for a in q.arrows})


def test_tensor_pointwise_product():
    a = ThinRep(A3, {"ij": 2.0, "jk": 3.0})
    b = ThinRep(A3, {"ij": 5.0, "jk": 7.0})
    assert tensor(a, b).weights == {"ij": 10.0, "jk": 21.0}


def test_unit_is_left_and_right_unit():
    rng = np.random.default_rng(0)
    w = rand_thin(D4, rng)
    e = unit(D4)
    assert tensor(w, e).weights == w.weights
    assert tensor(e, w).weights == w.weights


def test_tensor_rejects_quiver_mismatch():
    with pytest.raises(QuiverMismatch):
        tensor(unit(A3), unit(D4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monoidal_laws_exact(data):
    weights = lambda: {
        a.id: data.draw(st.integers(min_value=-4, max_value=4)) / 2 for a in D4.arrows
    }
    x, y, z = ThinRep(D4, weights()), ThinRep(D4, weights()), ThinRep(D4, weights())
    assert tensor(tensor(x, y), z).weights == tensor(x, tensor(y, z)).weights
    assert tensor(x, y).weights == tensor(y, x).weights
    assert tensor(x, unit(D4)).weights == x.weights


def test_unit_is_semistable_and_simple():
    assert is_semistable(unit(D4).to_triple())
    assert is_simple(unit(D4).to_triple())


def test_invertibility():
    rng = np.random.default_rng(1)
    a = rand_thin(D4, rng, lo=0.5, hi=1.5)
    assert is_invertible(a)
    assert tensor(a, inverse(a)).weights == pytest.approx(unit(D4).weights)
    zeroed = dict(a.weights)
    zeroed["c"] = 0.0
    assert not is_invertible(ThinRep(D4, zeroed))
    with pytest.raises(ShapeMismatch):
        inverse(ThinRep(D4, zeroed))


def test_invertibility_exhaustive_small():
    values = [0.0, 1.0, -1.0, 2.0]
    arrows = [a.id for a in A3.arrows]
    for combo in itertools.product(values, repeat=len(arrows)):
        t = ThinRep(A3, dict(zip(arrows, combo)))
        assert is_invertible(t) == all(v != 0.0 for v in combo)


@pytest.mark.parametrize("seed", range(10))
def test_invertible_implies_full_rank_orbit(seed):
    rng = np.random.default_rng(seed)
    a = rand_thin(D4, rng, lo=0.5, hi=1.5)
    t = a.to_triple()
    assert is_invertible(a)
    assert is_semistable(t)
    assert project(t).rank_vector() == {v: 1 for v in D4.hidden}
    assert is_simple(t)


def test_morphism_counterexample_valid_not_invertible():
    u = ThinRep(A3, {"ij": 1.0, "jk": 0.0})
    v = ThinRep(A3, {"ij": 0.0, "jk": 1.0})
    g = {"i": 1.0, "j": 0.0, "k": 1.0}
    report = check_morphism(g, u, v)
    assert report.valid and not report.invertible
    solved = solve_morphism(u, v)
    assert solved is not None and solved["j"] == 0.0


def test_identity_morphism_is_iso():
    rng = np.random.default_rng(2)
    w = rand_thin(D4, rng)
    g = {v: 1.0 for v in D4.vertices}
    report = check_morphism(g, w, w)
    assert report.valid and report.invertible


def test_no_morphism_between_generic_distinct_reps():
    rng = np.random.default_rng(3)
    a, b = rand_thin(A3, rng, 0.5, 1.5), rand_thin(A3, rng, 0.5, 1.5)
    # distinct moduli coordinates: product of weights differs
    assert solve_morphism(a, b) is None


@pytest.mark.parametrize("seed", range(20))
def test_groupoid_on_simples(seed):
    """Morphisms solved between gauge-equivalent simple thin reps are
    invertible; between inequivalent simples none exist."""
    rng = np.random.default_rng(seed)
    dims = thin_dims(D4)
    a = rand_thin(D4, rng, 0.5, 1.5)
    g = random_gauge(D4, dims, rng)
    moved = a.to_triple()
    moved = act(g, moved)
    from qmn.rep import join

    b = ThinRep(D4, {aid: float(m[0, 0]) for aid, m in join(moved).matrices.items()})
    assert is_simple(a.to_triple()) and is_simple(b.to_triple())
    solved = solve_morphism(a, b)
    assert solved is not None
    assert check_morphism(solved, a, b).invertible

    other = rand_thin(D4, rng, 0.5, 1.5)
    assert solve_morphism(a, other) is None


def test_morphism_found_by_backward_propagation():
    """g_v = 2 is only reachable from the sink: the source arrow is zero on both sides."""
    q = quiver_single_vertex()
    a, b = ThinRep(q, {"f": 0.0, "h": 2.0}), ThinRep(q, {"f": 0.0, "h": 1.0})
    solved = solve_morphism(a, b)
    assert solved is not None and solved["v"] == 2.0
    assert check_morphism(solved, a, b).invertible


def test_identity_found_on_all_zero_weights():
    q = quiver_single_vertex()
    t = ThinRep(q, {"f": 0.0, "h": 0.0})
    solved = solve_morphism(t, t)
    assert solved is not None and check_morphism(solved, t, t).invertible


def test_free_component_is_seeded_once():
    """With both framing arrows zero, h0 and h1 are cut off from the boundary;
    one seed must fix the pair, since the free scale cannot be chosen twice."""
    q = Quiver(["s", "h0", "h1", "t"], [("in", "s", "h0"), ("e", "h0", "h1"), ("out", "h1", "t")])
    a = ThinRep(q, {"in": 0.0, "e": 1.0, "out": 0.0})
    b = ThinRep(q, {"in": 0.0, "e": 3.0, "out": 0.0})
    solved = solve_morphism(a, b)
    assert solved is not None and check_morphism(solved, a, b).invertible
    assert solved["h1"] == 3.0 * solved["h0"]


@pytest.mark.parametrize("order", [["s", "h0", "h1", "t"], ["s", "h1", "h0", "t"]], ids=["h0-first", "h1-first"])
def test_forced_zero_found_in_any_vertex_order(order):
    """e is nonzero in a and zero in b, which forces g_h1 = 0; h0 is free.  The
    valid morphism (1, 1, 0, 1) must not depend on which hidden vertex is
    declared first."""
    q = Quiver(order, [("in", "s", "h0"), ("e", "h0", "h1"), ("out", "h1", "t")])
    a = ThinRep(q, {"in": 0.0, "e": 1.0, "out": 0.0})
    b = ThinRep(q, {"in": 0.0, "e": 0.0, "out": 0.0})
    solved = solve_morphism(a, b)
    assert solved is not None and check_morphism(solved, a, b).valid
    assert solved == {"s": 1.0, "h0": 1.0, "h1": 0.0, "t": 1.0}


@st.composite
def gauge_pairs(draw):
    """A thin rep on a random DAG with 1-5 hidden vertices and about 30% zero
    weights, its image under a random hidden gauge, and an independent rep."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 5)))

    def sparse():
        return ThinRep(q, {a.id: 0.0 if rng.random() < 0.3 else float(rng.standard_normal()) for a in q.arrows})

    a = sparse()
    moved = act(random_gauge(q, thin_dims(q), rng), a.to_triple())
    b = ThinRep(q, {aid: float(m[0, 0]) for aid, m in join(moved).matrices.items()})
    return a, b, sparse()


@settings(max_examples=200, deadline=None)
@given(gauge_pairs())
def test_solve_morphism_finds_every_gauge_isomorphism(pairs):
    a, b, other = pairs
    solved = solve_morphism(a, b)
    assert solved is not None and check_morphism(solved, a, b).invertible
    moved = join(act({i: solved[i] for i in a.quiver.hidden}, a.to_triple()))
    for aid, m in moved.matrices.items():
        assert linalg.rel_err(m[0, 0], b.weights[aid]) <= 1e-9
    found = solve_morphism(a, other)
    assert found is None or check_morphism(found, a, other).valid


def test_stability_under_tensor():
    rng = np.random.default_rng(4)
    a = rand_thin(D4, rng, 0.5, 1.5)
    b = rand_thin(D4, rng, 0.5, 1.5)
    assert is_semistable(tensor(a, b).to_triple())
    dead = dict(a.weights)
    dead["phi1"] = dead["phi2"] = dead["psi1"] = dead["psi2"] = dead["lam"] = 0.0
    not_sst = ThinRep(D4, dead)
    assert not is_semistable(not_sst.to_triple())
    assert not is_semistable(tensor(not_sst, b).to_triple())


def test_missing_weight_names_the_first_missing_arrow():
    with pytest.raises(ShapeMismatch, match=r"^no weight for arrow 'psi1'$"):
        ThinRep(D4, {"phi1": 1.0, "phi2": 2.0, "psi2": 3.0})
