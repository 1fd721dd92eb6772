"""The duality (V, f, h) <-> (V^T, h^T, f^T) on the opposite quiver, and the
moment map, which reads it, checked against finite differences of the
gauge action, which does not."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qmn.examples import random_dag_quiver
from qmn.moduli import project
from qmn.quiver import Quiver, framing_data
from qmn.relu import momentum
from qmn.rep import act, dual, join, layout, random_triple

FD_STEP = 1e-5


@st.composite
def triples(draw):
    """Triples on a random DAG with every dimension in 1..3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 5)))
    return random_triple(q, {v: draw(st.integers(1, 3)) for v in q.vertices}, rng)


def half_norm2(t):
    """1/2 of the squared norm of every matrix of t."""
    mats = [*t.hidden_matrices.values(), *t.f.values(), *t.h.values()]
    return 0.5 * sum(float(np.sum(m * m)) for m in mats)


@settings(max_examples=60, deadline=None)
@given(triples())
def test_momentum_is_the_gradient_of_the_norm_along_the_gauge(t):
    """mu(t)_i[k, l] is the derivative at 0 of 1/2 |g_eps . t|^2 for
    g_eps = I + eps E_kl at i and I elsewhere, by central differences."""
    mu = momentum(t).values
    eye = {i: np.eye(t.dims[i]) for i in t.quiver.hidden}
    for i in t.quiver.hidden:
        d = t.dims[i]
        for k in range(d):
            for l in range(d):
                step = np.zeros((d, d))
                step[k, l] = FD_STEP
                plus = half_norm2(act({**eye, i: eye[i] + step}, t))
                minus = half_norm2(act({**eye, i: eye[i] - step}, t))
                fd = (plus - minus) / (2 * FD_STEP)
                assert abs(fd - mu[i][k, l]) <= 1e-6 * max(abs(mu[i][k, l]), 1.0)


@settings(max_examples=100, deadline=None)
@given(triples())
def test_dual_is_the_transpose_triple_on_the_opposite_quiver(t):
    q = t.quiver
    d = dual(t)
    assert dual(t) is d
    assert d.quiver is q.opposite and q.opposite.opposite is q
    assert d.framing == framing_data(q.opposite, t.dims)
    back = dual(d)
    assert back.quiver is q and back.dims == t.dims and back.framing == t.framing
    assert back.layout is t.layout is layout(q, t.dims)
    for name in ("hidden_matrices", "f", "h"):
        ours, theirs = getattr(t, name), getattr(back, name)
        assert ours.keys() == theirs.keys()
        assert all(np.array_equal(ours[k], theirs[k]) for k in ours)
    r, rd = join(t), join(d)
    assert rd.quiver is q.opposite and rd.dims == r.dims
    assert all(np.array_equal(rd.matrices[a.id], r.matrices[a.id].T) for a in q.arrows)
    m, md = project(t), project(d)
    for i in q.hidden:
        block = m.vertex_block(i)
        assert np.allclose(md.vertex_block(i), block.T, rtol=0.0, atol=1e-12 * max(np.abs(block).max(), 1.0))


@settings(max_examples=100, deadline=None)
@given(triples())
def test_opposite_quiver_trades_sources_and_sinks(t):
    q = t.quiver
    op = q.opposite
    assert op.opposite is q
    assert op.vertices == q.vertices and op.hidden == q.hidden
    assert op.sources == q.sinks and op.sinks == q.sources
    for v in q.vertices:
        assert [a.id for a in op.arrows_into(v)] == [a.id for a in q.arrows_out_of(v)]
        assert [a.id for a in op.arrows_out_of(v)] == [a.id for a in q.arrows_into(v)]
    for a in q.arrows:
        assert (op.arrow_by_id[a.id].source, op.arrow_by_id[a.id].target) == (a.target, a.source)


def test_opposite_framing_is_kept_per_source_and_sink_dims():
    """Two triples on one quiver with equal u and w, whose source dims split
    3 into x as 1 + 2 and as 2 + 1, get different dual framings, each the one
    their dims give the opposite quiver; equal source and sink dims give
    equal framings, and equal dims one layout."""
    q = Quiver(["s1", "s2", "x", "t"], [("a", "s1", "x"), ("b", "s2", "x"), ("c", "x", "t")])
    rng = np.random.default_rng(3)
    one_two = random_triple(q, {"s1": 1, "s2": 2, "x": 2, "t": 1}, rng)
    two_one = random_triple(q, {"s1": 2, "s2": 1, "x": 2, "t": 1}, rng)
    assert one_two.framing.u == two_one.framing.u and one_two.framing.w == two_one.framing.w
    d12, d21 = dual(one_two).framing, dual(two_one).framing
    assert d12 != d21
    assert d12 == framing_data(q.opposite, one_two.dims) and d21 == framing_data(q.opposite, two_one.dims)
    assert [d for _, d in d12.out_slots["x"]] == [1, 2] and [d for _, d in d21.out_slots["x"]] == [2, 1]
    again = random_triple(q, {"s1": 1, "s2": 2, "x": 3, "t": 1}, rng)
    assert dual(again).framing == d12 is layout(q.opposite, one_two.dims).framing
    for t in (one_two, two_one):
        r, rd = join(t), join(dual(t))
        assert all(np.array_equal(rd.matrices[a.id], r.matrices[a.id].T) for a in q.arrows)

