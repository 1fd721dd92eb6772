import dataclasses
import re

import numpy as np
import pytest
from conftest import compose_gauge, deframed_matrices, parallel_dag_triples, reference_act
from hypothesis import assume, given, settings, strategies as st

from qmn.errors import QmnError, ShapeMismatch, SingularGauge, UnframableArrow
from qmn.examples import (
    d4tilde_triple,
    quiver_a3,
    quiver_d4tilde,
    quiver_single_vertex,
    random_dag_quiver,
    thin_dims,
)
from qmn.moduli import closed_orbit_representative, is_simple, project
from qmn.quiver import Quiver, framing_data
from qmn.rep import (
    DoubleFramedTriple,
    Representation,
    act,
    deframe,
    doubleframe_variant,
    dual,
    join,
    random_gauge,
    random_representation,
    random_triple,
    split,
)


def test_split_d4tilde_slots():
    t = d4tilde_triple(1, 2, 3, 4, 5, [6, 7], [8, 9], [10, 11], [12, 13])
    assert t.f["v1"].shape == (1, 2) and np.array_equal(t.f["v1"], [[10, 11]])
    assert t.f["v2"].shape == (1, 2) and np.array_equal(t.f["v2"], [[12, 13]])
    assert t.f["v5"].shape == (1, 1) and t.f["v5"][0, 0] == 5
    assert t.h["v4"].shape == (2, 1) and np.array_equal(t.h["v4"], [[6], [7]])
    assert t.h["v5"].shape == (2, 1) and np.array_equal(t.h["v5"], [[8], [9]])
    assert set(t.hidden_matrices) == {"a", "b", "c", "d"}
    # unframed hidden vertices carry empty blocks
    assert t.f["v3"].shape == (1, 0)
    assert t.h["v3"].shape == (0, 1)


def test_split_a3():
    q = quiver_a3()
    r = Representation(q, thin_dims(q), {"ij": 2.5, "jk": -3.0})
    t = split(r)
    assert t.hidden_matrices == {}
    assert t.f["j"][0, 0] == 2.5
    assert t.h["j"][0, 0] == -3.0


def test_split_rejects_direct_source_sink_arrow():
    q = Quiver(["s", "v", "t"], [("sv", "s", "v"), ("vt", "v", "t"), ("st", "s", "t")])
    r = Representation(q, {"s": 1, "v": 1, "t": 1}, {"sv": 1.0, "vt": 1.0, "st": 1.0})
    with pytest.raises(UnframableArrow):
        split(r)


@pytest.mark.parametrize("seed", range(100))
def test_split_join_roundtrip_bitexact(seed):
    q = quiver_d4tilde()
    dims = {v: (seed % 3) + 1 if v.startswith("v") else 1 for v in q.vertices}
    rng = np.random.default_rng(seed)
    r = random_representation(q, dims, rng)
    r2 = join(split(r))
    for aid in r.matrices:
        assert np.array_equal(r.matrices[aid], r2.matrices[aid])


def test_join_reproduces_thirteen_arrows():
    t = d4tilde_triple(1, 2, 3, 4, 5, [6, 7], [8, 9], [10, 11], [12, 13])
    r = join(t)
    assert len(r.matrices) == 13
    assert r.matrices["phi2"][0, 0] == 11
    assert r.matrices["w_2"][0, 0] == 9


def test_join_with_empty_hidden_arrow_set():
    q = quiver_single_vertex()
    r = Representation(q, thin_dims(q), {"f": 4.0, "h": 7.0})
    t = split(r)
    assert t.hidden_matrices == {}
    back = join(t)
    assert back.matrices["f"][0, 0] == 4.0 and back.matrices["h"][0, 0] == 7.0


def test_act_identity_is_noop():
    t = d4tilde_triple(*range(1, 6), [1, 2], [3, 4], [5, 6], [7, 8])
    g = {i: np.eye(1) for i in t.quiver.hidden}
    t2 = act(g, t)
    for i in t.quiver.hidden:
        assert np.allclose(t2.f[i], t.f[i])
        assert np.allclose(t2.h[i], t.h[i])


def test_act_thin_a3_scaling():
    q = quiver_a3()
    t = split(Representation(q, thin_dims(q), {"ij": 3.0, "jk": 5.0}))
    t2 = act({"j": np.array([[2.0]])}, t)
    assert t2.f["j"][0, 0] == pytest.approx(6.0)
    assert t2.h["j"][0, 0] == pytest.approx(2.5)


@pytest.mark.parametrize("seed", range(50))
def test_act_composition_law(seed):
    q = quiver_d4tilde()
    dims = {v: 2 if v in ("v1", "v3") else 1 for v in q.vertices}
    rng = np.random.default_rng(seed)
    t = random_triple(q, dims, rng)
    g1 = random_gauge(q, dims, rng)
    g2 = random_gauge(q, dims, rng)
    lhs = act(g1, act(g2, t))
    rhs = act(compose_gauge(g1, g2), t)
    for aid in lhs.hidden_matrices:
        assert np.allclose(lhs.hidden_matrices[aid], rhs.hidden_matrices[aid], rtol=1e-12, atol=1e-12)
    for i in q.hidden:
        assert np.allclose(lhs.f[i], rhs.f[i], rtol=1e-12, atol=1e-12)
        assert np.allclose(lhs.h[i], rhs.h[i], rtol=1e-12, atol=1e-12)


def test_act_rejects_singular_gauge():
    q = quiver_a3()
    t = split(Representation(q, thin_dims(q), {"ij": 1.0, "jk": 1.0}))
    with pytest.raises(SingularGauge):
        act({"j": np.array([[0.0]])}, t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_act_rejects_non_finite_gauge(bad):
    """A NaN or infinite block is refused, where the determinant test, which
    compares against NaN, let it through to a NaN triple."""
    q = quiver_d4tilde()
    t = random_triple(q, thin_dims(q), np.random.default_rng(0))
    g = {i: np.eye(1) for i in q.hidden}
    with pytest.raises(SingularGauge, match="'v3' is not finite"):
        act({**g, "v3": [[bad]]}, t)


@pytest.mark.parametrize("make", [quiver_single_vertex, quiver_d4tilde])
def test_act_rejects_a_gauge_block_of_the_wrong_size(make):
    """A block of the wrong size, or none at all, is a ShapeMismatch that names
    the vertex, not numpy's matmul error or a KeyError."""
    q = make()
    t = random_triple(q, thin_dims(q), np.random.default_rng(0))
    g = {i: np.eye(1) for i in q.hidden}
    v = q.hidden[-1]
    with pytest.raises(ShapeMismatch, match=f"gauge block at {v!r} has shape \\(2, 2\\), expected \\(1, 1\\)"):
        act({**g, v: np.eye(2)}, t)
    del g[v]
    with pytest.raises(ShapeMismatch, match=f"no gauge block at {v!r}"):
        act(g, t)


def test_act_takes_the_empty_block_at_a_zero_dimensional_vertex():
    q = quiver_d4tilde()
    dims = {**thin_dims(q), "v3": 0}
    t = random_triple(q, dims, np.random.default_rng(0))
    g = {i: 2.0 * np.eye(dims[i]) for i in q.hidden}
    moved = act(g, t)
    assert moved.f["v3"].shape == (0, 0) and np.array_equal(moved.f["v1"], 2.0 * t.f["v1"])


def test_scalar_redundancy_compensated_by_gauge():
    """Rescaling all framings by lambda / 1/lambda is the same orbit move as the
    constant gauge."""
    t = d4tilde_triple(*np.linspace(0.5, 4.5, 5), [1, 2], [3, 4], [5, 6], [7, 8])
    lam = 3.7
    g = {i: np.eye(1) / lam for i in t.quiver.hidden}
    moved = act(g, t)
    for i in t.quiver.hidden:
        assert np.allclose(moved.f[i], t.f[i] / lam)
        assert np.allclose(moved.h[i], t.h[i] * lam)
    for aid in t.hidden_matrices:
        assert np.allclose(moved.hidden_matrices[aid], t.hidden_matrices[aid])


def test_deframe_a3():
    q = quiver_a3()
    dq = deframe(q, thin_dims(q))
    assert set(dq.vertices) == {"j", "infinity"}
    assert len(dq.arrows) == 2
    kinds = {(a.source, a.target) for a in dq.arrows}
    assert kinds == {("infinity", "j"), ("j", "infinity")}
    assert dq.dims == {"j": 1, "infinity": 1}


def test_deframe_d4tilde_counts():
    q = quiver_d4tilde()
    dq = deframe(q, thin_dims(q))
    assert len(dq.vertices) == 6
    ins = [a for a in dq.arrows if a.source == "infinity"]
    outs = [a for a in dq.arrows if a.target == "infinity"]
    hidden = [a for a in dq.arrows if "infinity" not in (a.source, a.target)]
    assert len(ins) == 5 and len(outs) == 4 and len(hidden) == 4


def test_deframe_no_hidden_vertices():
    q = Quiver(["x"], [])
    dq = deframe(q, {"x": 1})
    assert dq.vertices == ("infinity",)
    assert dq.arrows == ()


def test_deframed_matrices_are_columns_and_rows():
    t = d4tilde_triple(1, 2, 3, 4, 5, [6, 7], [8, 9], [10, 11], [12, 13])
    dq = deframe(t.quiver, t.dims)
    mats = deframed_matrices(t, dq)
    assert mats["in[v1][1]"][0, 0] == 11  # second column of f at v1
    assert mats["out[v4][0]"][0, 0] == 6  # first row of h at v4


def test_doubleframe_variant_a3():
    q = quiver_a3()
    ext = doubleframe_variant(q, thin_dims(q))
    assert len(ext.quiver.vertices) == 3
    assert len(ext.quiver.arrows) == 2
    assert ext.expected_dim == 0  # one-point variant has dimension 1 instead


def test_doubleframe_variant_d4tilde():
    q = quiver_d4tilde()
    ext = doubleframe_variant(q, thin_dims(q))
    assert ext.expected_dim == 13 - 5 - 1


def test_representation_accepts_scalars_and_checks_shapes():
    q = quiver_a3()
    r = Representation(q, thin_dims(q), {"ij": 2, "jk": [[3.0]]})
    assert r.matrices["ij"].shape == (1, 1)
    with pytest.raises(ShapeMismatch):
        Representation(q, thin_dims(q), {"ij": [[1.0, 2.0]], "jk": 1.0})


@pytest.mark.parametrize("arrow", ["phi1", "a", "v_1"])
def test_split_names_the_arrow_of_a_matrix_reshaped_after_construction(arrow):
    """A framing (phi1), hidden (a) or coframing (v_1) matrix set to the wrong
    shape after the representation was built is refused by `split` with a
    ShapeMismatch that names the arrow, not a numpy error."""
    r = join(d4tilde_triple(1, 2, 3, 4, 5, [6, 7], [8, 9], [10, 11], [12, 13]))
    r.matrices[arrow] = np.ones((2, 1))
    with pytest.raises(ShapeMismatch, match=rf"arrow '{arrow}': expected shape \(1, 1\), got \(2, 1\)"):
        split(r)


def _has_directed_cycle(vertices, arrows):
    out = {v: [] for v in vertices}
    for a in arrows:
        out[a.source].append(a.target)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}

    def visit(v):
        color[v] = GREY
        for w in out[v]:
            if color[w] == GREY or (color[w] == WHITE and visit(w)):
                return True
        color[v] = BLACK
        return False

    return any(color[v] == WHITE and visit(v) for v in vertices)


@pytest.mark.parametrize("quiver_fn", [quiver_a3, quiver_d4tilde])
def test_deframed_quiver_has_oriented_cycle(quiver_fn):
    q = quiver_fn()
    dq = deframe(q, thin_dims(q))
    assert _has_directed_cycle(dq.vertices, dq.arrows)


def test_triple_construction_leaves_caller_dicts_untouched():
    q = quiver_d4tilde()
    fr = framing_data(q, thin_dims(q))
    hidden = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    f = {i: [1.0] * fr.u[i] for i in q.hidden}
    h = {i: [2.0] * fr.w[i] for i in q.hidden}
    t = DoubleFramedTriple(q, thin_dims(q), hidden, f, h)
    for given in (hidden, f, h):
        assert not any(isinstance(v, np.ndarray) for v in given.values())
    assert t.hidden_matrices["a"].shape == (1, 1)
    assert t.f["v1"].shape == (1, 2) and t.h["v4"].shape == (2, 1)


def test_triple_is_frozen():
    t = random_triple(quiver_d4tilde(), thin_dims(quiver_d4tilde()), np.random.default_rng(4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.f = {}
    for field in (t.f, t.h, t.hidden_matrices):
        key = next(iter(field))
        with pytest.raises(TypeError):
            field[key] = np.zeros((1, 1))


def test_triple_dims_are_read_only():
    """The dims a triple's matrices and memo were built for cannot change
    under it."""
    q = quiver_d4tilde()
    t = random_triple(q, thin_dims(q), np.random.default_rng(4))
    assert is_simple(t)
    with pytest.raises(TypeError):
        t.dims["v1"] = 2
    assert t.dims["v1"] == 1 and is_simple(t)


def test_shared_framing_is_read_only():
    """`act` hands its framing to the new triple; an edit through one triple
    would reshape the other's `assembled` while its `h` keeps its rows."""
    t = d4tilde_triple(1, 2, 3, 4, 5, [1, 2], [3, 4], [5, 6], [7, 8])
    t2 = act(random_gauge(t.quiver, t.dims, np.random.default_rng(8)), t)
    assert t2.framing is t.framing
    for name in ("u", "w", "in_slots", "out_slots"):
        with pytest.raises(TypeError):
            getattr(t2.framing, name)["v4"] = 0
    assert project(t).assembled().shape == (4, 5)


def triple_arrays(t):
    return [*t.hidden_matrices.values(), *t.f.values(), *t.h.values()]


def test_triple_owns_its_arrays():
    """The constructor copies the caller's arrays: writing into them leaves
    the triple's matrices and its memoised rank vector as they were, and
    every matrix of it, or of the triples `act`, `dual` and the closed orbit
    build from it, refuses a write."""
    q = quiver_d4tilde()
    rng = np.random.default_rng(6)
    source = random_triple(q, {**thin_dims(q), "v5": 2}, rng)
    given = [{k: m.copy() for k, m in side.items()} for side in (source.hidden_matrices, source.f, source.h)]
    t = DoubleFramedTriple(q, source.dims, *given)
    kept, ranks = [m.copy() for m in triple_arrays(t)], project(t).rank_vector()
    assert is_simple(t)
    for side in given:
        for m in side.values():
            m[...] = 0.0
    assert all(np.array_equal(m, k) for m, k in zip(triple_arrays(t), kept, strict=True))
    fresh = DoubleFramedTriple(q, t.dims, t.hidden_matrices, t.f, t.h)
    assert project(t).rank_vector() == ranks == project(fresh).rank_vector()
    assert project(DoubleFramedTriple(q, t.dims, *given)).rank_vector() == {i: 0 for i in q.hidden}
    built = (t, act(random_gauge(q, t.dims, rng), t), dual(t), closed_orbit_representative(project(t)))
    for s in built:
        for m in triple_arrays(s):
            with pytest.raises(ValueError, match="read-only"):
                m[...] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        t.f["v1"][0, 0] = 1.0


def test_act_returns_a_triple_with_a_fresh_memo():
    q = quiver_d4tilde()
    rng = np.random.default_rng(8)
    t = random_triple(q, thin_dims(q), rng)
    assert is_simple(t) and t._memo
    moved = act(random_gauge(q, thin_dims(q), rng), t)
    assert moved._memo == {} and moved._memo is not t._memo


@st.composite
def gauged_triples(draw):
    """A `parallel_dag_triples` triple and a `random_gauge` for it."""
    t = draw(parallel_dag_triples())
    return t, random_gauge(t.quiver, t.dims, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def assert_act_matches_the_reference(g, t):
    got, want = act(g, t), reference_act(g, t)
    for new, ref in [(got.hidden_matrices, want.hidden_matrices), (got.f, want.f), (got.h, want.h)]:
        assert new.keys() == ref.keys()
        for k in ref:
            assert new[k].shape == ref[k].shape
            assert np.abs(new[k] - ref[k]).max(initial=0.0) <= 1e-12 * np.abs(ref[k]).max(initial=0.0)


@settings(max_examples=200, deadline=None)
@given(gauged_triples())
def test_stacked_act_matches_the_per_arrow_reference(case):
    t, g = case
    assert_act_matches_the_reference(g, t)


@st.composite
def two_framings_of_one_quiver(draw):
    """Two gauged triples on one `random_dag_quiver` object whose dims differ
    at one vertex: a hidden one (hidden dims 0-3), or a source or sink, which
    changes one framing width (framing dims 1-2)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 6)))
    values = {v: range(4) if v in q.hidden else range(1, 3) for v in q.vertices}
    a = {v: draw(st.sampled_from(values[v])) for v in q.vertices}
    v = draw(st.sampled_from(q.vertices))
    b = {**a, v: draw(st.sampled_from([d for d in values[v] if d != a[v]]))}
    return [(random_gauge(q, dims, rng), random_triple(q, dims, rng)) for dims in (a, b)]


@settings(max_examples=200, deadline=None)
@given(two_framings_of_one_quiver())
def test_act_plans_are_kept_apart_per_dims_and_framing(cases):
    """The layout `act` reads is memoised on the quiver per dims; acting on
    two triples of one quiver object in turn must not hand either the other's
    layout."""
    (ga, ta), (gb, tb) = cases
    assert ta.quiver is tb.quiver
    for g, t in [(ga, ta), (gb, tb), (ga, ta), (gb, tb)]:
        assert_act_matches_the_reference(g, t)


@settings(max_examples=100, deadline=None)
@given(gauged_triples())
def test_triples_qmn_builds_keep_the_public_constructor_contract(case):
    """`act`, `dual` and `closed_orbit_representative` build their triples
    without coercing again: what they hand out is what the public constructor
    would have made of it, read-only, and the dual's dual looks at t's own
    stacks."""
    t, g = case
    for build in (lambda: act(g, t), lambda: dual(t), lambda: closed_orbit_representative(project(t))):
        s = build()  # the memo is checked before anything reads s
        assert s._memo == {} and s._memo is not t._memo
        dims, u, w = s.dims, s.framing.u, s.framing.w
        declared = [
            (s.hidden_matrices, {a.id: (dims[a.target], dims[a.source]) for a in s.quiver.hidden_quiver().arrows}),
            (s.f, {i: (dims[i], u[i]) for i in s.quiver.hidden}),
            (s.h, {i: (w[i], dims[i]) for i in s.quiver.hidden}),
        ]
        for mapping, shapes in declared:
            assert list(mapping) == list(shapes)
            for k, m in mapping.items():
                assert m.dtype == np.float64 and m.shape == shapes[k] and not m.flags.writeable
        for mapping in (s.dims, s.hidden_matrices, s.f, s.h):
            with pytest.raises(TypeError):
                mapping[next(iter(mapping), "x")] = 0
        rebuilt = DoubleFramedTriple(s.quiver, s.dims, s.hidden_matrices, s.f, s.h)
        assert rebuilt.dims == s.dims
        for name in ("hidden_matrices", "f", "h"):
            new, old = getattr(rebuilt, name), getattr(s, name)
            assert list(new) == list(old)
            for k in old:
                assert new[k].dtype == old[k].dtype and new[k].shape == old[k].shape
                assert np.array_equal(new[k], old[k])
    back = dual(dual(t))
    assert back.quiver is t.quiver and back.framing.u == t.framing.u and back.framing.w == t.framing.w
    for name in ("hidden_matrices", "f", "h"):
        new, old = getattr(back, name), getattr(t, name)
        assert list(new) == list(old) and all(np.array_equal(new[k], old[k]) for k in old)
    for new, old in zip(back.stacks, t.stacks, strict=True):  # the same memory, seen the same way
        assert [a.__array_interface__ for a in new] == [b.__array_interface__ for b in old]


@st.composite
def dag_triples(draw):
    """A random triple on a `random_dag_quiver`, hidden dims 0-3 and framing
    dims 1-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 6)))
    dims = {v: draw(st.integers(0, 3) if v in q.hidden else st.integers(1, 3)) for v in q.vertices}
    return random_triple(q, dims, rng)


@settings(max_examples=100, deadline=None)
@given(parallel_dag_triples() | dag_triples(), st.integers(0, 2**32 - 1))
def test_framing_follows_from_the_dims(t, seed):
    """Every triple, however built, is framed as its quiver and dims say, and
    so is its dual on the opposite quiver."""
    q = t.quiver
    built = [
        DoubleFramedTriple(q, dict(t.dims), dict(t.hidden_matrices), dict(t.f), dict(t.h)),
        split(join(t)),
        act(random_gauge(q, t.dims, np.random.default_rng(seed)), t),
        dual(t),
        closed_orbit_representative(project(t)),
    ]
    for s in built:
        assert s.framing == framing_data(s.quiver, s.dims)
        assert dual(s).framing == framing_data(s.quiver.opposite, s.dims)


@settings(max_examples=100, deadline=None)
@given(parallel_dag_triples(), st.data())
def test_triples_compare_by_value(t, data):
    """Triples compare by quiver, dims and matrix values, whatever arrays
    hold them: both round trips give t back, and a copy with one matrix
    entry changed compares unequal."""
    assert split(join(t)) == t and dual(dual(t)) == t
    mats = {"arrows": dict(t.hidden_matrices), "f": dict(t.f), "h": dict(t.h)}
    filled = [(side, k) for side, m in mats.items() for k, a in m.items() if a.size]
    assume(filled)
    side, k = data.draw(st.sampled_from(filled))
    changed = mats[side][k].copy()
    changed.flat[data.draw(st.integers(0, changed.size - 1))] += 1.0
    mats[side][k] = changed
    other = DoubleFramedTriple(t.quiver, dict(t.dims), mats["arrows"], mats["f"], mats["h"])
    assert other != t and t != other


BAD_BLOCKS = ["missing", "wrong shape", "nan", "inf", "zero", "rank-deficient", "later size group"]


@settings(max_examples=300, deadline=None)
@given(gauged_triples(), st.sampled_from(BAD_BLOCKS), st.data())
def test_stacked_act_refuses_a_bad_block_as_the_reference_does(case, kind, data):
    """One bad block at a random vertex: the same exception, naming the same
    vertex.  "later size group" zeroes a block whose size differs from the
    first hidden vertex's, so its stack is checked after another passed."""
    t, g = case
    q, dims = t.quiver, t.dims
    if kind in ("missing", "wrong shape"):
        candidates = list(q.hidden)
    elif kind == "rank-deficient":
        candidates = [v for v in q.hidden if dims[v] >= 2]
    elif kind == "later size group":
        candidates = [v for v in q.hidden if dims[v] and dims[v] != dims[q.hidden[0]]]
    else:
        candidates = [v for v in q.hidden if dims[v]]
    assume(candidates)
    v = data.draw(st.sampled_from(candidates))
    d, bad = dims[v], dict(g)
    if kind == "missing":
        del bad[v]
    elif kind == "wrong shape":
        bad[v] = np.eye(d + 1)
    elif kind in ("nan", "inf"):
        bad[v] = g[v].copy()
        bad[v][data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))] = np.nan if kind == "nan" else -np.inf
    elif kind == "rank-deficient":
        bad[v] = g[v].copy()
        bad[v][:, 0] = 2.0 * bad[v][:, 1]
    else:
        bad[v] = np.zeros((d, d))
    with pytest.raises(QmnError) as want:
        reference_act(bad, t)
    assert type(want.value) in (ShapeMismatch, SingularGauge) and repr(v) in str(want.value)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        act(bad, t)
