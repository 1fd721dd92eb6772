import itertools
import json
import re
import tracemalloc
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmn import io, linalg, moduli as moduli_module, quiver as quiver_module
from qmn.errors import CodimensionMismatch, PathExplosion, QmnError, ShapeMismatch
from qmn.examples import (
    d4tilde_template,
    d4tilde_triple,
    quiver_a3,
    quiver_d4tilde,
    quiver_single_vertex,
    random_dag_quiver,
    thin_dims,
)
from qmn.cli import main
from qmn.moduli import (
    closed_orbit_representative,
    is_semistable,
    is_simple,
    moduli_dimension,
    project,
    resolution_data,
    simple_rep_exists,
    verify_resolution_point,
)
from qmn.network import network_matrix, psi_hat
from qmn.quiver import Path, Quiver, all_hidden_paths, paths_into
from qmn.rep import (
    DoubleFramedTriple,
    Layout,
    Representation,
    act,
    dual,
    join,
    layout,
    random_gauge,
    random_triple,
    split,
)
from qmn.thincat import ThinRep, solve_morphism

from conftest import (
    brute_force_paths,
    core_rank_vector,
    equilibrate,
    layered_quiver,
    null,
    parallel_dag_triples,
    path_assembled,
    path_matrix,
    path_rank_vector,
    path_vertex_block,
    paths_through,
    reference_images,
    reference_svd_stacks,
    reference_verify_resolution_point,
    rel_err,
)


def zeroed(t):
    """The triple on t's quiver and dims with every matrix zero."""
    return replace(
        t,
        hidden_matrices={k: np.zeros_like(m) for k, m in t.hidden_matrices.items()},
        f={i: np.zeros_like(m) for i, m in t.f.items()},
        h={i: np.zeros_like(m) for i, m in t.h.items()},
    )


def thin_rep(q, weights):
    return split(Representation(q, thin_dims(q), {k: float(v) for k, v in weights.items()}))


def test_project_d4tilde_all_ones():
    t = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    m = project(t)
    expected = np.array(
        [
            [1, 1, 1, 1, 0],
            [1, 1, 1, 1, 0],
            [1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(m.assembled(), expected)


@pytest.mark.parametrize("seed", range(10))
def test_project_d4tilde_matches_template(seed):
    rng = np.random.default_rng(seed)
    params = (
        *rng.standard_normal(5),
        rng.standard_normal(2),
        rng.standard_normal(2),
        rng.standard_normal(2),
        rng.standard_normal(2),
    )
    m = project(d4tilde_triple(*params))
    assert rel_err(m.assembled(), d4tilde_template(*params)) < 1e-14


def test_project_a3_lazy_composition():
    t = thin_rep(quiver_a3(), {"ij": 3.0, "jk": 7.0})
    m = project(t)
    lazy = Path("j", "j", ())
    assert set(m.blocks) == {lazy}
    assert m.blocks[lazy][0, 0] == pytest.approx(21.0)


@pytest.mark.parametrize("seed", range(30))
def test_project_gauge_invariant(seed):
    q = quiver_d4tilde()
    dims = {v: 2 if v == "v3" else 1 for v in q.vertices}
    rng = np.random.default_rng(seed)
    t = random_triple(q, dims, rng)
    g = random_gauge(q, dims, rng)
    a0, a1 = project(t).assembled(), project(act(g, t)).assembled()
    assert np.linalg.norm(a1 - a0) <= 1e-9 * max(np.linalg.norm(a0), 1.0)


def test_vertex_blocks_d4tilde_layout():
    rng = np.random.default_rng(7)
    t = d4tilde_triple(
        *rng.standard_normal(5),
        rng.standard_normal(2),
        rng.standard_normal(2),
        rng.standard_normal(2),
        rng.standard_normal(2),
    )
    m = project(t)

    def block(s, e):
        (p,) = [p for p in m.blocks if p.start == s and p.end == e]
        return m.blocks[p]

    a, b = block("v1", "v4"), block("v2", "v4")
    c, d = block("v1", "v5"), block("v2", "v5")
    e = block("v5", "v5")
    assert np.allclose(m.vertex_block("v3"), np.block([[a, b], [c, d]]))
    assert np.allclose(m.vertex_block("v5"), np.hstack([e, c, d]))
    assert np.allclose(m.vertex_block("v4"), np.hstack([a, b]))
    assert np.allclose(m.vertex_block("v1"), np.vstack([a, c]))
    assert np.allclose(m.vertex_block("v2"), np.vstack([b, d]))


def test_rank_vector_d4tilde_all_ones():
    m = project(d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1]))
    assert m.rank_vector() == {v: 1 for v in ("v1", "v2", "v3", "v4", "v5")}


def test_rank_vector_zero_triple():
    t = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    t = zeroed(t)
    m = project(t)
    assert m.rank_vector() == {v: 0 for v in t.quiver.hidden}


@pytest.mark.parametrize("seed", range(10))
def test_rank_vector_generic_thin(seed):
    rng = np.random.default_rng(seed)
    q = quiver_d4tilde()
    weights = {a.id: float(rng.uniform(0.5, 1.5) * rng.choice([-1, 1])) for a in q.arrows}
    m = project(thin_rep(q, weights))
    assert m.rank_vector() == {v: 1 for v in q.hidden}


def mixed_scale_triple():
    """One hidden vertex of dimension 3 whose framing maps mix scales 1 and
    10^3: h f has relative singular values near 1e-8 although h and f are
    both well conditioned, and the point is simple."""
    q = Quiver(
        ["s0", "s1", "x", "t0", "t1"],
        [("in0", "s0", "x"), ("in1", "s1", "x"), ("out0", "x", "t0"), ("out1", "x", "t1")],
    )
    dims = {"s0": 1, "s1": 2, "x": 3, "t0": 2, "t1": 1}
    mats = {
        "in0": np.array([[2.87195931], [-0.0774229825], [-0.339237495]]),
        "in1": np.array(
            [[-2305.97423, 757.946210], [183.337444, 1241.95888], [568.152399, -387.798972]]
        ),
        "out0": np.array(
            [[1055.75445, 833.798896, 193.409216], [-240.797446, -1613.69914, 120.349423]]
        ),
        "out1": np.array([[0.531297626, 1.06583859, 0.0801840953]]),
    }
    return split(Representation(q, dims, mats))


def block_err(got, want):
    """Largest blockwise deviation of two points' coordinate families,
    relative to the largest reference entry."""
    assert set(got.blocks) == set(want.blocks)
    scale = max((np.abs(b).max() for b in want.blocks.values()), default=0.0)
    return max(
        (np.abs(got.blocks[p] - b).max() for p, b in want.blocks.items()), default=0.0
    ) / max(scale, 1e-300)


def test_rank_vector_full_under_mixed_block_scales():
    t = mixed_scale_triple()
    m = project(t)
    assert linalg.num_rank(m.vertex_block("x")) == 2  # the unscaled block reads as rank 2
    assert is_simple(t)
    assert m.rank_vector() == path_rank_vector(m) == {"x": 3}


def test_closed_orbit_keeps_full_rank_under_mixed_block_scales():
    """The representative keeps all three directions of the simple point, so
    it is simple itself and projects back onto the point."""
    m = project(mixed_scale_triple())
    c = closed_orbit_representative(m)
    assert is_simple(c)
    assert block_err(project(c), m) <= 1e-9


def test_rank_vector_thresholds_principal_angle_cosines():
    """Path image and co-image spans at x meet at cosines 1 and 1e-6: the
    second direction counts at tol 1e-8 and not at tol 1e-4."""
    q = Quiver(["s", "x", "t"], [("f", "s", "x"), ("h", "x", "t")])
    c = 1e-6
    f = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    h = np.array([[1.0, 0.0, 0.0], [0.0, c, np.sqrt(1 - c * c)]])
    m = project(split(Representation(q, {"s": 2, "x": 3, "t": 2}, {"f": f, "h": h})))
    assert m.rank_vector(1e-8) == {"x": 2}
    assert m.rank_vector(1e-4) == {"x": 1}


@pytest.mark.parametrize("tol", [-1.0, 1.0, np.inf, np.nan])
def test_rank_tolerance_out_of_range_is_rejected(tol):
    m = project(mixed_scale_triple())
    with pytest.raises(QmnError, match="rank tolerance"):
        m.rank_vector(tol)
    with pytest.raises(QmnError, match="rank tolerance"):
        closed_orbit_representative(m, tol)


def test_is_simple_a3():
    q = quiver_a3()
    assert is_simple(thin_rep(q, {"ij": 1.3, "jk": -0.7}))
    assert not is_simple(thin_rep(q, {"ij": 1.3, "jk": 0.0}))
    assert not is_simple(thin_rep(q, {"ij": 0.0, "jk": 1.0}))


def test_semistability_examples():
    q = quiver_a3()
    assert not is_semistable(thin_rep(q, {"ij": 0.0, "jk": 1.0}))
    assert is_semistable(thin_rep(q, {"ij": 1.0, "jk": 0.0}))
    ones = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    assert is_semistable(ones)


@pytest.mark.parametrize(
    "quiver_fn", [quiver_a3, quiver_single_vertex, quiver_d4tilde]
)
def test_simple_iff_full_rank_binary_weights(quiver_fn):
    """Sweep simplicity agrees with the enumerated-path full-rank criterion
    exhaustively on 0/1 weights (small quivers only here; the acceptance suite
    covers more)."""
    q = quiver_fn()
    arrows = [a.id for a in q.arrows]
    if len(arrows) > 8:
        # only sample the corners and a fixed slice to keep this test snappy
        combos = list(itertools.islice(itertools.product([0.0, 1.0], repeat=len(arrows)), 256))
    else:
        combos = itertools.product([0.0, 1.0], repeat=len(arrows))
    full = {i: 1 for i in q.hidden}
    for combo in combos:
        t = thin_rep(q, dict(zip(arrows, combo)))
        assert is_simple(t) == (path_rank_vector(project(t)) == full)


@st.composite
def degenerate_triples(draw):
    """Non-thin triples on a random DAG, each arrow block drawn as exact zero,
    rank one, N(0, 1) or N(0, 1) * 10^k with k in [-3, 3]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 6)))
    hidden = set(q.hidden)
    dims = {v: draw(st.integers(1, 4) if v in hidden else st.integers(1, 2)) for v in q.vertices}
    mats = {}
    for a in q.arrows:
        shape = (dims[a.target], dims[a.source])
        kind = draw(st.sampled_from(["zero", "rank-one", "normal", "scaled"]))
        if kind == "zero":
            mats[a.id] = np.zeros(shape)
        elif kind == "rank-one":
            mats[a.id] = np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
        elif kind == "normal":
            mats[a.id] = rng.standard_normal(shape)
        else:
            mats[a.id] = rng.standard_normal(shape) * 10.0 ** draw(st.integers(-3, 3))
    return split(Representation(q, dims, mats))


@settings(max_examples=200, deadline=None)
@given(degenerate_triples())
def test_stability_matches_path_oracles(t):
    """The sweep agrees with the enumerated-path definitions: semistable iff the
    path images V_w f span every V_i, simple iff the rank vector is full.  The
    span is measured on unit-norm image columns, since one path may carry
    weights 10^6 times those of another."""
    m = project(t)
    spanned = True
    for i in t.quiver.hidden:
        images = [path_matrix(t, p) @ t.f[p.start] for p in paths_through(t, i)[0]]
        stacked = np.hstack(images) if images else np.zeros((t.dims[i], 0))
        spanned &= linalg.num_rank(equilibrate(stacked)) == t.dims[i]
    assert is_semistable(t) == spanned
    assert is_simple(t) == (path_rank_vector(m) == t.hidden_dims())


@settings(max_examples=200, deadline=None)
@given(degenerate_triples())
def test_project_blocks_match_path_matrix_oracle(t):
    """Every block h_j V_w f_i built from prefix images agrees with the product
    rebuilt from the identity, over exactly the framed-in -> framed-out paths."""
    m = project(t)
    fr = t.framing
    hq = t.quiver.hidden_quiver()
    expected = {
        Path(i, j, arrows)
        for i in hq.vertices
        for j in hq.vertices
        if fr.u[i] and fr.w[j]
        for arrows in brute_force_paths(hq, i, j)
    }
    assert set(m.blocks) == expected
    for p, b in m.blocks.items():
        assert rel_err(b, t.h[p.end] @ path_matrix(t, p) @ t.f[p.start]) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(degenerate_triples())
def test_rank_vector_matches_path_rank_oracle(t):
    """The rank read from the path spans equals the rank of the equilibrated
    vertex blocks assembled from enumerated paths."""
    m = project(t)
    assert m.rank_vector() == path_rank_vector(m)


@st.composite
def sparse_triples(draw):
    """Triples on a random DAG whose entries are 0, 0, 1 or -1, hidden dims
    1-4 and framing dims 1-2: path images and co-images often meet at a
    right angle, so a core has a rank below min(r_F, r_H)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 6)))
    hidden = set(q.hidden)
    dims = {v: draw(st.integers(1, 4) if v in hidden else st.integers(1, 2)) for v in q.vertices}
    mats = {a.id: rng.choice([0.0, 0.0, 1.0, -1.0], size=(dims[a.target], dims[a.source])) for a in q.arrows}
    return split(Representation(q, dims, mats))


def test_rank_shortcut_matches_the_core_rank_at_every_vertex():
    """Where one side spans V_i or is zero, `rank_vector` reads min(r_F, r_H)
    off the cut ranks instead of factoring a core; at tol 1e-8 and 1e-3 it
    equals `core_rank_vector`, which factors the core at every vertex.  The
    draws reach all three cases (one side full, both deficient, a zero side)
    and a deficient vertex whose core rank is below min(r_F, r_H)."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(degenerate_triples(), parallel_dag_triples(), sparse_triples()))
    def check(t):
        m = project(t)
        for tol in (1e-8, 1e-3):
            want = core_rank_vector(t, tol)
            assert m.rank_vector(tol) == want
        images, coimages = reference_images(t), reference_images(dual(t))
        for i in t.quiver.hidden:
            r_f, r_h = images[i][1].size, coimages[i][1].size
            seen.add("zero" if min(r_f, r_h) == 0 else "full" if max(r_f, r_h) == t.dims[i] else "deficient")
            if want[i] < min(r_f, r_h):
                seen.add("below")

    check()
    assert seen == {"zero", "full", "deficient", "below"}


def sweep_in_paths(t, i):
    """In-path slots of i in sweep order: the lazy path if u_i > 0, then the
    slots of each arrow a : x -> i in `arrows_into` order, x's extended by a."""
    into = t.quiver.hidden_quiver().arrows_into(i)
    lazy = [Path(i, i)] if t.framing.u[i] else []
    return lazy + [Path(p.start, i, p.arrows + (a.id,)) for a in into for p in sweep_in_paths(t, a.source)]


def sweep_out_paths(t, i):
    """Out-path slots of i in sweep order, mirroring `sweep_in_paths`."""
    out = t.quiver.hidden_quiver().arrows_out_of(i)
    lazy = [Path(i, i)] if t.framing.w[i] else []
    return lazy + [Path(i, p.end, (a.id,) + p.arrows) for a in out for p in sweep_out_paths(t, a.target)]


@settings(max_examples=200, deadline=None)
@given(degenerate_triples())
def test_path_spaces_in_sweep_order(t):
    """q^(i) is the path-matrix oracle with rows and columns in sweep order;
    resolution_data(t)[i], the annihilator of the tautological subspace, is
    the stacked in-path images in that order; and a semistable triple's
    resolution data verify against its own point."""
    m = project(t)
    annihilators = resolution_data(t)
    for i in t.quiver.hidden:
        ins, outs = sweep_in_paths(t, i), sweep_out_paths(t, i)
        assert sorted(ins) == sorted(paths_through(t, i)[0])
        assert sorted(outs) == sorted(paths_through(t, i)[1])
        got, want = m.vertex_block(i), path_vertex_block(t, ins, outs)
        assert got.shape == want.shape and rel_err(got, want) <= 1e-12
        images = [path_matrix(t, p) @ t.f[p.start] for p in ins]
        stacked = np.hstack(images) if images else np.zeros((t.dims[i], 0))
        assert annihilators[i].shape == stacked.shape and rel_err(annihilators[i], stacked) <= 1e-12
    if is_semistable(t):
        assert verify_resolution_point(annihilators, m)


@settings(max_examples=200, deadline=None)
@given(degenerate_triples())
def test_closed_orbit_round_trip(t):
    m = project(t)
    assert block_err(project(closed_orbit_representative(m)), m) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(degenerate_triples())
def test_closed_orbit_in_orthonormal_gauge(t):
    """The representative's stacked out-path co-images h_k V_w at i are
    orthonormal coordinates on the image of q^(i): O^T O = I_r (+) 0 with r the
    rank at i.  The round trip alone does not pin this gauge (a Sigma^-1
    section would also project back onto the point)."""
    m = project(t)
    c = closed_orbit_representative(m)
    ranks = m.rank_vector()
    for i in t.quiver.hidden:
        rows = [c.h[p.end] @ path_matrix(c, p) for p in paths_through(c, i)[1]]
        o = np.vstack(rows) if rows else np.zeros((0, t.dims[i]))
        want = np.zeros((t.dims[i], t.dims[i]))
        want[: ranks[i], : ranks[i]] = np.eye(ranks[i])
        assert np.abs(o.T @ o - want).max() <= 1e-9
    assert is_simple(c) == is_simple(t)


CLOSED_ORBIT_RANK_LOSS = FilePath(__file__).resolve().parent / "data" / "closed_orbit_rank_loss.json"


def closed_orbit_rank_loss_triple():
    """Trial 3013 of a seeded scan (numpy default_rng(1)): 4,000 quivers
    random_dag_quiver(rng, n_hidden=rng.integers(2, 6)), hidden dims
    rng.integers(1, 4), framing dims rng.integers(1, 3), each arrow matrix
    rng.standard_normal(shape) * 10**rng.uniform(-3, 3), drawn in that order.
    15 of its 994 simple draws give a representative that is not simple;
    this one has the fewest arrows."""
    return split(io.representation_from_json(str(CLOSED_ORBIT_RANK_LOSS)))


def test_closed_orbit_rank_loss_fixture_is_simple():
    """The fixture below is simple: the triple's own sweeps keep every
    direction, the smallest kept singular value 3.7e-7 of its sweep matrix's
    largest."""
    t = closed_orbit_rank_loss_triple()
    assert is_simple(t)
    assert project(t).rank_vector() == t.hidden_dims() == {"h0": 1, "h1": 2, "h2": 3}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the orthonormal co-image gauge puts the whole singular-value spread "
    "at h2 on the forward side, where the SUBSPACE_TOL cut drops a direction",
)
def test_closed_orbit_of_a_simple_point_keeps_its_rank():
    t = closed_orbit_rank_loss_triple()
    c = closed_orbit_representative(project(t))
    assert project(c).rank_vector() == project(t).rank_vector()
    assert is_simple(c)


def closed_orbit_matrices(t):
    c = closed_orbit_representative(project(t))
    return [*c.hidden_matrices.values(), *c.f.values(), *c.h.values()]


@settings(max_examples=200, deadline=None)
@given(degenerate_triples(), st.permutations(range(4)))
def test_memoised_readings_independent_of_call_order(t, order):
    """The readings that share the sweeps memoised on a triple give the same
    answers in any call order, and the same as on a fresh equal triple."""
    readings = [
        is_semistable,
        is_simple,
        lambda s: project(s).rank_vector(),
        closed_orbit_matrices,
    ]
    got = [None] * len(readings)
    for k in order:
        got[k] = readings[k](t)
    fresh = DoubleFramedTriple(t.quiver, dict(t.dims), dict(t.hidden_matrices), dict(t.f), dict(t.h))
    want = [reading(fresh) for reading in readings]
    assert got[:3] == want[:3]
    assert all(np.array_equal(a, b) for a, b in zip(got[3], want[3], strict=True))


@settings(max_examples=200, deadline=None)
@given(parallel_dag_triples())
def test_stacked_sweeps_match_the_per_vertex_reference(t):
    """The level-stacked sweeps, cut per vertex by `_views`, are bit-equal to
    `reference_images` in both directions, the ranks to the cores' ranks on
    the reference sweeps (`core_rank_vector`, every SVD taken alone), and
    the closed orbit to the one read with every SVD taken alone
    (`reference_svd_stacks`) on the reference sweeps."""
    for side in (t, dual(t)):
        got, want = moduli_module._views(side), reference_images(side)
        assert all(np.array_equal(a, b) for i in t.quiver.hidden for a, b in zip(got[i], want[i], strict=True))
    m = project(t)
    ranks, c = m.rank_vector(), closed_orbit_representative(m)
    fresh = DoubleFramedTriple(t.quiver, dict(t.dims), dict(t.hidden_matrices), dict(t.f), dict(t.h))
    want_ranks = core_rank_vector(fresh)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moduli_module, "_views", reference_images)
        mp.setattr(linalg, "svd_stacks", reference_svd_stacks)
        want_c = closed_orbit_representative(project(fresh))
    assert ranks == want_ranks
    for got, want in ((c.hidden_matrices, want_c.hidden_matrices), (c.f, want_c.f), (c.h, want_c.h)):
        assert all(np.array_equal(got[k], want[k]) for k in want)


@settings(max_examples=300, deadline=None)
@given(degenerate_triples())
def test_padded_sweep_keeps_the_cut_ranks(t):
    """Zero and rank-one blocks cut directions, so the sweep passes u * s on
    with zeroed singular values (on about two thirds of sweep sides here).
    The cut ranks equal those of the recurrence that passes the cut u * s
    alone, and the singular values agree to 1e-13 relative to the larger of
    a vertex's largest one and the size of what it stacks (a product that
    cancels loses digits in either recurrence).  The closed orbit, which
    reads the dual's vt by the padded slot widths, projects back to the
    point and has the rank vector of the one read from the unpadded
    recurrence, whose slots are the cut ranks wide."""
    unpadded = {}
    for side in (t, dual(t)):
        got, unpadded[side.quiver] = moduli_module._views(side), reference_images(side, padded=False)
        into = side.quiver.hidden_quiver().arrows_into
        for i in t.quiver.hidden:
            want, images = unpadded[side.quiver][i][1], unpadded[side.quiver]
            sizes = [np.linalg.norm(side.hidden_matrices[a.id]) * images[a.source][1].max(initial=0.0) for a in into(i)]
            assert got[i][1].shape == want.shape
            scale = max([want.max(initial=0.0), np.linalg.norm(side.f[i])] + sizes)
            assert np.abs(got[i][1] - want).max(initial=0.0) <= 1e-13 * scale
    m = project(t)
    c = closed_orbit_representative(m)
    assert block_err(project(c), m) <= 1e-9
    fresh = DoubleFramedTriple(t.quiver, dict(t.dims), dict(t.hidden_matrices), dict(t.f), dict(t.h))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moduli_module, "_views", lambda side: unpadded[side.quiver])
        widths = {q: {i: x[1].size for i, x in images.items()} for q, images in unpadded.items()}
        plan = moduli_module._level_plan
        mp.setattr(moduli_module, "_level_plan", lambda lay, cut: (widths[lay.quiver], *plan(lay, cut)[1:]))
        cut = closed_orbit_representative(project(fresh))
    assert project(c).rank_vector() == project(cut).rank_vector()


@settings(max_examples=200, deadline=None)
@given(parallel_dag_triples())
def test_empty_stacks_get_empty_factors_without_an_svd(t):
    """A hidden dim of 0 or a stacked width of 0 never reaches
    np.linalg.svd: the sweep builds the thin factors (d, 0), (0,) and
    (0, width) itself, width = u_i plus the passed widths k_x of the arrows
    into i, and passes on nothing."""
    shapes, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", recorded)
        for side in (t, dual(t)):
            images, k = moduli_module._views(side), moduli_module._level_plan(side.layout, True)[0]
            hq = side.quiver.hidden_quiver()
            for i in hq.vertices:
                d, width = side.dims[i], side.framing.u[i] + sum(k[a.source] for a in hq.arrows_into(i))
                assert k[i] == min(d, width)
                if not k[i]:
                    assert [x.shape for x in images[i]] == [(d, 0), (0,), (0, width), (d, 0)]
    assert all(min(shape) > 0 for shape in shapes)


def test_level_plan_is_built_once_per_quiver_and_dims():
    """Triples of one quiver and dims share one layout and one plan per
    sweep, kept in the layout's memo; the dual's lives in the opposite
    quiver's layout, and other dims get their own."""
    q = random_dag_quiver(np.random.default_rng(5), n_hidden=6)
    t, same = (random_triple(q, {v: 2 for v in q.vertices}, np.random.default_rng(s)) for s in (6, 7))
    other = random_triple(q, {v: 1 for v in q.vertices}, np.random.default_rng(8))
    moduli_module._images(t)
    moduli_module._path_images(t)
    assert same.layout is t.layout and other.layout is not t.layout
    plans = [moduli_module._level_plan(t.layout, cut) for cut in (True, False)]
    memo = list(t.layout._memo.values())
    assert all(any(p is x for x in memo) for p in plans) and plans[0] is not plans[1]
    assert all(moduli_module._level_plan(same.layout, cut) is p for cut, p in zip((True, False), plans))
    assert moduli_module._level_plan(other.layout, True) is not plans[0]
    opposite = moduli_module._level_plan(dual(t).layout, True)
    assert dual(t).layout is layout(q.opposite, t.dims)
    assert any(opposite is x for x in dual(t).layout._memo.values())
    assert not any(opposite is x for x in memo)


@settings(max_examples=100, deadline=None)
@given(parallel_dag_triples())
def test_sweep_plan_gives_each_vertex_one_slot_in_its_shapes_store(t):
    """In both directions and for both cuts, every hidden vertex passes into
    exactly one slot of the store of its passed shape (d_i, k_i), a group's
    vertices into consecutive slots, and each store has one slot per vertex
    that uses it."""
    for side in (t, dual(t)):
        for cut in (True, False):
            k, stores, groups, _ = moduli_module._level_plan(side.layout, cut)
            slots = []
            for vertices, d, _, _, _, shape, taken, _ in groups:
                assert isinstance(taken, slice) and taken.stop - taken.start == len(vertices)
                assert all(shape == (d, k[i]) == (side.dims[i], k[i]) for i in vertices)
                slots += [(i, shape, s) for i, s in zip(vertices, range(taken.start, taken.stop))]
            assert sorted(i for i, _, _ in slots) == sorted(side.quiver.hidden)
            used = {}
            for _, shape, s in slots:
                used.setdefault(shape, set()).add(s)
            assert {shape: len(s) for shape, s in used.items()} == stores
            assert all(s == set(range(stores[shape])) for shape, s in used.items())


@settings(max_examples=100, deadline=None)
@given(parallel_dag_triples())
def test_dual_layout_groups_are_the_transposed_groups(t):
    """The shape groups of `dual(t).layout` are those of t's layout in the
    same order, each transposed, its keys and gauge rows the same and the
    target and source rows traded, with f and h traded; so the dual's stacks
    are t's, transposed."""
    lay, op = t.layout, dual(t).layout
    for ours, theirs in zip(lay.moves, (op.moves.arrows, op.moves.h, op.moves.f)):
        assert ours.at == theirs.at
        assert len(ours.groups) == len(theirs.groups)
        for (keys, r, c, xs, ys), (keys_op, r_op, c_op, xs_op, ys_op) in zip(ours.groups, theirs.groups):
            assert keys == keys_op and (r, c) == (c_op, r_op)
            for rows, rows_op in ((xs, ys_op), (ys, xs_op)):
                assert rows is rows_op is None or np.array_equal(rows, rows_op)
    for side, side_op in zip(t.stacks, (dual(t).stacks.arrows, dual(t).stacks.h, dual(t).stacks.f)):
        assert all(np.array_equal(a.swapaxes(1, 2), b) for a, b in zip(side, side_op, strict=True))


@settings(max_examples=200, deadline=None)
@given(parallel_dag_triples())
def test_assembled_matches_the_enumerated_path_sum(t):
    got, want = project(t).assembled(), path_assembled(t)
    assert got.shape == want.shape and rel_err(got, want) <= 1e-12


def test_edited_block_moves_assembled_by_the_edit(ten_arrow_quiver):
    """Assigning to `m.blocks` moves `assembled`: adding E to the block of one
    of two parallel paths h1 ~> h3 moves the (h1, h3) cell by exactly E and
    nothing else (integer entries, so every sum is exact)."""
    q = ten_arrow_quiver
    dims = {"s1": 1, "s2": 2, "h1": 2, "h2": 3, "h3": 2, "t1": 2, "t2": 1}
    rng = np.random.default_rng(9)
    mats = {a.id: rng.integers(-3, 4, (dims[a.target], dims[a.source])).astype(float) for a in q.arrows}
    m = project(split(Representation(q, dims, mats)))
    before = m.assembled()
    p = Path("h1", "h3", ("e12", "e23"))
    assert {w for w in m.blocks if (w.start, w.end) == ("h1", "h3")} == {p, Path("h1", "h3", ("e13",))}
    e = rng.integers(-5, 6, m.blocks[p].shape).astype(float)
    m.blocks[p] = m.blocks[p] + e
    w, u = m.framing.w, m.framing.u
    want = before.copy()
    want[w["h1"] + w["h2"] :, : u["h1"]] += e
    assert np.array_equal(m.assembled(), want)


def test_assembled_returns_a_copy(ten_arrow_quiver):
    """The point keeps one assembled matrix: writing into what `assembled()`
    returned changes neither a later `assembled()` nor any block, before or
    after an edit through `m.blocks`."""
    q = ten_arrow_quiver
    dims = {"s1": 1, "s2": 2, "h1": 2, "h2": 3, "h3": 2, "t1": 2, "t2": 1}
    m = project(random_triple(q, dims, np.random.default_rng(4)))
    for edit in (False, True):
        if edit:
            p = next(iter(m.blocks))
            m.blocks[p] = m.blocks[p] + 1.0
        kept, blocks = m.assembled().copy(), {p: b.copy() for p, b in m.blocks.items()}
        m.assembled()[...] = 7.0
        assert np.array_equal(m.assembled(), kept)
        assert all(np.array_equal(m.blocks[p], b) for p, b in blocks.items())


@st.composite
def integer_triples(draw):
    """A `parallel_dag_triples` triple with every entry redrawn from -3..3, so
    every sum `assembled` forms is exact."""
    t = draw(parallel_dag_triples())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def ints(mats):
        return {k: rng.integers(-3, 4, m.shape).astype(float) for k, m in mats.items()}

    return replace(t, hidden_matrices=ints(t.hidden_matrices), f=ints(t.f), h=ints(t.h))


def memo_arrays(memo):
    """Every array held in a triple's memo, nested containers opened."""
    stack, found = list(memo.values()), []
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
    return found


@settings(max_examples=150, deadline=None)
@given(integer_triples(), st.booleans(), st.data())
def test_block_edits_write_through_to_assembled_alone(t, read_first, data):
    """Assigning to blocks, before or after the first `assembled`, moves each
    (start, end) cell of `assembled` by exactly the edits of its paths; the
    block reads back the assigned value.  The rank vector, the vertex blocks
    and a fresh projection of the triple do not follow, and no block, edited
    or not, shares storage with the triple's memoised sweeps."""
    m = project(t)
    hidden = t.quiver.hidden
    ranks = m.rank_vector()
    vertex_blocks = {i: m.vertex_block(i) for i in hidden}
    want = project(t).assembled()
    if read_first:
        assert np.array_equal(m.assembled(), want)
    row = dict(zip(hidden, np.cumsum([0] + [t.framing.w[j] for j in hidden]).tolist()))
    col = dict(zip(hidden, np.cumsum([0] + [t.framing.u[i] for i in hidden]).tolist()))
    for p in data.draw(st.lists(st.sampled_from(list(m.blocks)), min_size=1, max_size=4)):
        n = m.blocks[p].size
        e = np.reshape(data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), m.blocks[p].shape)
        edited = m.blocks[p] + e
        m.blocks[p] = edited
        assert np.array_equal(m.blocks[p], edited)
        want[row[p.end] : row[p.end] + t.framing.w[p.end], col[p.start] : col[p.start] + t.framing.u[p.start]] += e
    assert np.array_equal(m.assembled(), want)
    assert m.rank_vector() == ranks
    assert all(np.array_equal(m.vertex_block(i), vertex_blocks[i]) for i in hidden)
    fresh = project(t)
    assert np.array_equal(fresh.assembled(), path_assembled(t))
    sweeps = memo_arrays(t._memo) + memo_arrays(dual(t)._memo)
    assert not any(np.shares_memory(b, a) for b in m.blocks.values() for a in sweeps)


@settings(max_examples=100, deadline=None)
@given(integer_triples(), st.data())
def test_blocks_refuse_what_they_cannot_hold(t, data):
    """A block takes a real array of its exact shape and nothing else: a
    wrong shape raises ShapeMismatch, a complex block raises rather than
    losing its imaginary part, an in-place edit of its view (`+=`, one
    entry) raises ValueError, and each leaves the block and `assembled` as
    they were; deletion raises, and a key that is no slot path is not in the
    mapping."""
    m = project(t)
    p = data.draw(st.sampled_from(list(m.blocks)))
    r, c = m.blocks[p].shape
    kept, assembled = m.blocks[p].copy(), m.assembled()
    for shape in {(r + 1, c), (r, c + 1), (c, r), (r * c,), ()} - {(r, c)}:
        with pytest.raises(ShapeMismatch):
            m.blocks[p] = np.ones(shape)
    with pytest.raises(TypeError):
        m.blocks[p] = kept + 1j
    with pytest.raises(ValueError):
        m.blocks[p] += 1.0
    with pytest.raises(ValueError):
        m.blocks[p][0, 0] = 5.0
    assert np.array_equal(m.blocks[p], kept) and np.array_equal(m.assembled(), assembled)
    with pytest.raises(AttributeError):
        del m.blocks[p]
    assert p in m.blocks and "x" not in m.blocks
    for unknown in (Path(p.start, p.end, p.arrows + ("no-arrow",)), Path("nowhere", "nowhere")):
        assert unknown not in m.blocks
        with pytest.raises(KeyError):
            m.blocks[unknown]
        with pytest.raises(KeyError):
            m.blocks[unknown] = kept
    assert len(m.blocks) == len(list(m.blocks)) == len(set(m.blocks))


def test_blocks_leave_every_memo_as_it_was(ten_arrow_quiver):
    """Once `assembled` and `resolution_data` have memoised the path images,
    their plan and the assembly plan, reading the blocks and assigning one
    add no entry to the memo of the layout, the triple, its dual or the
    quiver: the blocks live on the point alone."""
    q = ten_arrow_quiver
    dims = {"s1": 1, "s2": 2, "h1": 2, "h2": 3, "h3": 2, "t1": 2, "t2": 1}
    t = random_triple(q, dims, np.random.default_rng(11))
    m = project(t)
    m.assembled()
    resolution_data(t)
    all_hidden_paths(q.hidden_quiver())
    memos = (t.layout._memo, t._memo, dual(t)._memo, q._memo, q.hidden_quiver()._memo)
    before = [list(memo) for memo in memos]
    p = next(iter(m.blocks))
    m.blocks[p] = m.blocks[p] + 1.0
    assert [list(memo) for memo in memos] == before


def count_factored(monkeypatch):
    """Count the matrices that `linalg.svd`, the one SVD call, factors, keyed
    by whether it computes singular vectors."""
    factored = {True: 0, False: 0}
    svd = linalg.svd

    def counted(stack, compute_uv=True):
        factored[compute_uv] += len(stack)
        return svd(stack, compute_uv)

    monkeypatch.setattr(linalg, "svd", counted)
    return factored


def test_sweep_runs_once_per_direction(monkeypatch):
    """One triple costs one cut SVD per hidden vertex and direction, however
    many readings use it; semistability needs only the forward direction, and
    the closed orbit adds one core per hidden vertex and no sweep."""
    factored = count_factored(monkeypatch)
    q = random_dag_quiver(np.random.default_rng(2), n_hidden=5)
    dims = {v: 2 for v in q.vertices}
    t = random_triple(q, dims, np.random.default_rng(3))
    is_semistable(t)
    assert factored[True] == len(q.hidden)
    m = project(t)
    m.rank_vector()
    is_simple(t)
    is_semistable(t)
    assert factored[True] == 2 * len(q.hidden)
    closed_orbit_representative(m)
    assert factored[True] == 3 * len(q.hidden)


def test_sweep_factors_one_stack_per_level(monkeypatch):
    """On a thin layered quiver every vertex of a level has the same stacked
    path images' shape, so each direction runs one np.linalg.svd per level
    and the closed orbit's cores one; the ranks factor no core, since at a
    thin vertex one side spans V_i or is zero."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    q = layered_quiver([3, 4, 4, 4, 2])
    t = random_triple(q, thin_dims(q), np.random.default_rng(4))
    monkeypatch.setattr(np.linalg, "svd", counted)
    is_semistable(t)
    assert calls == [(4, 1, 3), (4, 1, 4), (4, 1, 4)]
    closed_orbit_representative(project(t))
    assert calls[3:] == [(4, 1, 2), (4, 1, 4), (4, 1, 4), (12, 1, 1)]


def test_no_moduli_reader_walks_a_path(monkeypatch):
    """`project`, the sweep readers, `assembled`, the network map,
    `vertex_block` and the resolution helpers walk no path, on the quiver or
    on its opposite.  `blocks` walks the paths into each framed-out hidden
    vertex once per point, and a point of other dims on the quiver walks
    them again: nothing is kept between the two."""
    walks = []

    def counted(hq, v):
        walks.append((hq, v))
        return walk(hq, v)

    walk = quiver_module.paths_into
    monkeypatch.setattr(quiver_module, "paths_into", counted)
    monkeypatch.setattr(moduli_module, "paths_into", counted)
    q = random_dag_quiver(np.random.default_rng(5), n_hidden=6)
    t = random_triple(q, {v: 2 for v in q.vertices}, np.random.default_rng(6))
    m = project(t)
    m.rank_vector()
    is_simple(t)
    is_semistable(t)
    closed_orbit_representative(m)
    network_matrix(t)
    psi_hat(m)
    for i in q.hidden:
        m.vertex_block(i)
    verify_resolution_point(resolution_data(t), m)
    m.assembled()
    assert walks == []
    assert m.blocks and m.blocks
    framed_out = [(q.hidden_quiver(), j) for j in q.hidden if t.framing.w[j]]
    assert walks == framed_out
    assert project(random_triple(q, {v: 1 for v in q.vertices}, np.random.default_rng(7))).blocks
    assert walks == 2 * framed_out


def hidden_chain(n, ins=(0,), outs=None):
    """A thin triple on a hidden chain h0 -> ... -> h{n-1}, with a source
    into each h_k of `ins` and a sink out of each of `outs` (default: the
    last)."""
    outs = (n - 1,) if outs is None else outs
    hidden = [f"h{k}" for k in range(n)]
    arrows = [(f"a{k}", hidden[k], hidden[k + 1]) for k in range(n - 1)]
    arrows += [(f"in{k}", f"s{k}", hidden[k]) for k in ins] + [(f"out{k}", hidden[k], f"t{k}") for k in outs]
    q = Quiver([*(f"s{k}" for k in ins), *hidden, *(f"t{k}" for k in outs)], arrows)
    return random_triple(q, thin_dims(q), np.random.default_rng(n))


@st.composite
def hidden_chains(draw):
    """A thin triple on a hidden chain of 1-30 vertices, framed in at h0 and
    out at the last vertex and at drawn others."""
    n = draw(st.integers(1, 30))
    others = st.lists(st.integers(0, n - 1), unique=True)
    return hidden_chain(n, sorted({0, *draw(others)}), sorted({n - 1, *draw(others)}))


@settings(max_examples=150, deadline=None)
@given(parallel_dag_triples() | hidden_chains())
def test_paths_into_is_the_slot_order(t):
    """At every hidden vertex, the walk is `all_hidden_paths`' tuple, and its
    paths that start where u > 0 are the sweep's in-path slots, in order."""
    hq, paths = t.quiver.hidden_quiver(), all_hidden_paths(t.quiver.hidden_quiver())
    for i in hq.vertices:
        walked = list(paths_into(hq, i))
        assert tuple(walked) == paths[i]
        assert [p for p in walked if t.framing.u[p.start]] == sweep_in_paths(t, i)


def held_paths(*owners):
    """Every `Path` reached from the attributes of owners through mappings
    (keys and values), tuples, lists and sets."""
    found, todo, seen = [], [vars(x) for x in owners], set()
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Path):
            found.append(x)
        elif isinstance(x, Mapping):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (tuple, list, set, frozenset)):
            todo += x
    return found


def quivers_and_layouts(q):
    """q, its hidden quiver, its opposite and that one's hidden quiver, and
    every layout in their memos."""
    quivers = (q, q.hidden_quiver(), q.opposite, q.opposite.hidden_quiver())
    return quivers + tuple(x for quiver in quivers for x in quiver._memo.values() if isinstance(x, Layout))


def test_no_quiver_keeps_a_path(ten_arrow_quiver, monkeypatch, tmp_path, capsys):
    """After `all_hidden_paths`, `m.blocks` or `qmn moduli coords` has run, no
    attribute or `_memo` entry of the quiver, its hidden quiver, its opposite
    or their layouts holds a `Path`; the point holds its blocks' paths."""
    dims = {"s1": 1, "s2": 2, "h1": 2, "h2": 3, "h3": 2, "t1": 2, "t2": 1}
    t = random_triple(ten_arrow_quiver, dims, np.random.default_rng(12))
    q, m = t.quiver, project(t)
    all_hidden_paths(q.hidden_quiver()), all_hidden_paths(q.opposite.hidden_quiver())
    assert len(m.blocks) == len(held_paths(m)) > 0
    assert held_paths(*quivers_and_layouts(q)) == []
    points = []
    monkeypatch.setattr(moduli_module, "project", lambda t: points.append(project(t)) or points[-1])
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(io.representation_to_json(join(t))))
    assert main(["--format", "json", "moduli", "coords", "--rep", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"]
    (point,) = points
    assert point.quiver is not q and "blocks" in vars(point)
    assert held_paths(*quivers_and_layouts(point.quiver)) == []


def test_blocks_of_a_long_chain_keep_no_path_table():
    """On a 300-vertex hidden chain framed at its two ends, reading the one
    block keeps under 2 MB (tracemalloc; its path images and their plan
    included): the 45,150 paths of the chain, and the 300 walked into its
    last vertex, are not kept."""
    t = hidden_chain(300)
    m = project(t)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        blocks = m.blocks
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert list(blocks) == [Path("h0", "h299", tuple(f"a{k}" for k in range(299)))]
    assert kept < 2 * 2**20


def test_rank_vector_is_computed_once_per_tol(monkeypatch):
    """A second rank_vector, or the closed orbit's own, runs no sweep and
    counts no rank again; another tol runs no sweep and factors only the
    cores of the vertices where both sides are deficient, and an edit to a
    returned dict reaches no later one."""
    factored, sweeps, sweep = count_factored(monkeypatch), [], moduli_module._sweep
    monkeypatch.setattr(moduli_module, "_sweep", lambda *args: sweeps.append(args[0]) or sweep(*args))
    q = random_dag_quiver(np.random.default_rng(7), n_hidden=5)
    t = random_triple(q, {v: 2 for v in q.vertices}, np.random.default_rng(8))
    m = project(t)
    first = m.rank_vector()
    assert len(sweeps) == 2 and factored[False] == 0  # both sides span every V_i: no core
    first[q.hidden[0]] = -1
    assert m.rank_vector() == project(t).rank_vector() == {v: 2 for v in q.hidden}
    closed_orbit_representative(m)
    assert len(sweeps) == 2 and factored[False] == 0
    m.rank_vector(1e-3)
    assert len(sweeps) == 2 and factored[False] == 0
    narrow = random_triple(q, {v: 3 if v in q.hidden else 1 for v in q.vertices}, np.random.default_rng(8))
    images, coimages = reference_images(narrow), reference_images(dual(narrow))
    both = sum(0 < x[1].size < 3 and 0 < coimages[i][1].size < 3 for i, x in images.items())
    assert 0 < both < len(q.hidden)
    project(narrow).rank_vector()
    assert len(sweeps) == 4 and factored[False] == both
    project(narrow).rank_vector()
    closed_orbit_representative(project(narrow))
    assert len(sweeps) == 4 and factored[False] == both
    project(narrow).rank_vector(1e-3)
    assert len(sweeps) == 4 and factored[False] == 2 * both


def test_path_space_readers_refuse_past_the_path_cap():
    """Thin 4-16^5-2 has 1,193,040 hidden paths: every reader of the path
    spaces refuses it with the cap's message, while the rank needs no path."""
    q = layered_quiver([4, 16, 16, 16, 16, 16, 2])
    t = random_triple(q, thin_dims(q), np.random.default_rng(0))
    m = project(t)
    readers = [
        lambda: m.blocks,
        lambda: m.vertex_block(q.hidden[0]),
        lambda: resolution_data(t),
        lambda: verify_resolution_point({}, m),
    ]
    for read in readers:
        with pytest.raises(PathExplosion, match="hidden path count 1193040 exceeds cap 1000000"):
            read()
    assert m.rank_vector() == {v: 1 for v in q.hidden}


def test_memo_belongs_to_its_triple():
    """A sweep memoised on one triple is not read for another on the same
    quiver, and every triple of a quiver reads equal paths, slot for slot."""
    t = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    z = zeroed(t)
    assert is_simple(t) and not is_simple(z)
    assert project(t).rank_vector() != project(z).rank_vector()
    assert all_hidden_paths(t.quiver.hidden_quiver()) == all_hidden_paths(z.quiver.hidden_quiver())
    assert list(project(t).blocks) == list(project(z).blocks)


def test_simple_rep_exists_a3_single_cycle():
    q = quiver_a3()
    report = simple_rep_exists(q, thin_dims(q))
    assert report.exists and report.single_cycle
    deep = simple_rep_exists(q, {"i": 1, "j": 2, "k": 1})
    assert deep.single_cycle and not deep.exists


def test_single_cycle_independent_of_vertex_names():
    for name in ("v", "__inf__", "infinity"):
        q = Quiver(["s", name, "t"], [("a", "s", name), ("b", name, "t")])
        report = simple_rep_exists(q, thin_dims(q))
        assert report.single_cycle and report.exists


def test_simple_rep_exists_d4tilde_thin():
    q = quiver_d4tilde()
    report = simple_rep_exists(q, thin_dims(q))
    assert report.exists and not report.single_cycle


def test_simple_rep_exists_defect_failure():
    q = Quiver(
        ["s", "v", "t1", "t2"],
        [("sv", "s", "v"), ("vt1", "v", "t1"), ("vt2", "v", "t2")],
    )
    dims = {"s": 1, "v": 2, "t1": 1, "t2": 1}
    report = simple_rep_exists(q, dims)
    assert not report.exists and "u[v]" in report.reason


def test_moduli_dimension_values():
    qa = quiver_a3()
    assert moduli_dimension(qa, thin_dims(qa)).value == 1
    qd = quiver_d4tilde()
    md = moduli_dimension(qd, thin_dims(qd))
    assert md.value == 8 and not md.expected_only
    flagged = moduli_dimension(qa, {"i": 1, "j": 2, "k": 1})
    assert flagged.expected_only


def test_semisimplify_simple_triple_has_full_rank():
    rng = np.random.default_rng(11)
    t = random_triple(quiver_d4tilde(), thin_dims(quiver_d4tilde()), rng)
    assert project(t).rank_vector() == {v: 1 for v in t.quiver.hidden}
    assert is_simple(t)


def test_semisimplify_zero_triple():
    t = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    t = zeroed(t)
    point = project(t)
    assert point.rank_vector() == {v: 0 for v in t.quiver.hidden}
    rep = closed_orbit_representative(point)
    assert all(np.allclose(m, 0) for m in rep.hidden_matrices.values())


@pytest.mark.parametrize("seed", range(15))
def test_closed_orbit_representative_reprojects(seed):
    q = quiver_d4tilde()
    dims = {v: 2 if v in ("v1", "v3") else 1 for v in q.vertices}
    rng = np.random.default_rng(seed)
    t = random_triple(q, dims, rng)
    if seed % 3 == 0:  # exercise rank-deficient orbits as well
        t = replace(t, f={**t.f, "v1": np.zeros_like(t.f["v1"])})
    m = project(t)
    m2 = project(closed_orbit_representative(m))
    for p in m.blocks:
        assert rel_err(m2.blocks[p], m.blocks[p]) < 1e-9


def test_resolution_point_d4tilde_generic():
    rng = np.random.default_rng(3)
    t = d4tilde_triple(
        *rng.uniform(0.5, 1.5, size=5),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
    )
    m = project(t)
    subspaces = resolution_data(t)
    assert verify_resolution_point(subspaces, m)


def test_resolution_point_shift_violation():
    rng = np.random.default_rng(3)
    t = d4tilde_triple(
        *rng.uniform(0.5, 1.5, size=5),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
    )
    m = project(t)
    annihilators = resolution_data(t)
    # replace the subspace at v3 by a generic hyperplane, the kernel of a
    # random row: shift compatibility from v1/v2 fails almost surely, also
    # at the zero point, where the kernel conditions hold
    annihilators["v3"] = rng.standard_normal(annihilators["v3"].shape[1])
    assert not verify_resolution_point(annihilators, m)
    assert not verify_resolution_point(annihilators, project(zeroed(t)))


def test_resolution_point_zero_moduli_point():
    """Against the zero point, kernel conditions hold automatically; only the
    shift conditions matter."""
    rng = np.random.default_rng(5)
    t_gen = d4tilde_triple(
        *rng.uniform(0.5, 1.5, size=5),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
    )
    subspaces = resolution_data(t_gen)
    t0 = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    t0 = zeroed(t0)
    m0 = project(t0)
    assert verify_resolution_point(subspaces, m0)


def test_resolution_point_codimension_check():
    rng = np.random.default_rng(3)
    t = d4tilde_triple(
        *rng.uniform(0.5, 1.5, size=5),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
        rng.uniform(0.5, 1.5, size=2),
    )
    m = project(t)
    annihilators = resolution_data(t)
    annihilators["v5"] = annihilators["v5"][:-1]  # drop an annihilating row: wrong codim
    with pytest.raises(CodimensionMismatch, match="subspace at 'v5' has codimension 0, expected 1"):
        verify_resolution_point(annihilators, m)


def test_verify_resolution_point_rejects_an_annihilator_that_is_not_a_finite_matrix():
    """A nan entry and a 3-D array are refused by name, not passed on to
    numpy's SVD or to the slicing of the shift check."""
    t = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    m = project(t)
    good = resolution_data(t)
    with_nan = np.array(good["v5"])
    with_nan[0, 0] = np.nan
    for bad, shape in ((with_nan, with_nan.shape), (good["v5"][:, :, None], (*good["v5"].shape, 1))):
        message = f"annihilator at 'v5' is not a finite matrix, got shape {shape}"
        with pytest.raises(ShapeMismatch, match=re.escape(message)):
            verify_resolution_point({**good, "v5": bad}, m)
    assert verify_resolution_point(good, m)


def test_verify_resolution_point_names_a_missing_vertex():
    t = d4tilde_triple(1, 1, 1, 1, 1, [1, 1], [1, 1], [1, 1], [1, 1])
    subspaces = resolution_data(t)
    del subspaces["v4"]
    with pytest.raises(CodimensionMismatch, match="no subspace given at 'v4'"):
        verify_resolution_point(subspaces, project(t))


@st.composite
def dag_triples(draw):
    """A random triple on a `random_dag_quiver` with 1-6 hidden vertices, every
    dimension 1-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 6)))
    return random_triple(q, {v: draw(st.integers(1, 3)) for v in q.vertices}, rng)


def resolution_answer(verify, data, m):
    """verify(data, m), or CodimensionMismatch if it raises that."""
    try:
        return verify(data, m)
    except CodimensionMismatch:
        return CodimensionMismatch


@settings(max_examples=200, deadline=None)
@given(st.one_of(degenerate_triples(), dag_triples()), st.integers(0, 2**32 - 1))
def test_resolution_point_matches_the_kernel_basis_oracle(t, seed):
    """The annihilator verifier and the kernel-basis oracle, handed the `null`
    of the same rows, give the same answer: for the triple's data against its
    own point and against another point, with one vertex's annihilator
    replaced by random rows (also against the zero point, where only the
    shifts can fail), and with one row dropped (wrong codimension)."""
    rng = np.random.default_rng(seed)
    m, other = project(t), project(random_triple(t.quiver, t.dims, rng))
    annihilators = resolution_data(t)
    i = t.quiver.hidden[rng.integers(len(t.quiver.hidden))]
    replaced = {**annihilators, i: rng.standard_normal(annihilators[i].shape)}
    cases = [
        (annihilators, m),
        (annihilators, other),
        (replaced, m),
        (replaced, project(zeroed(t))),
        ({**annihilators, i: annihilators[i][:-1]}, m),
    ]
    answers = []
    for data, point in cases:
        answers.append(resolution_answer(verify_resolution_point, data, point))
        kernels = {k: null(a) for k, a in data.items()}
        assert answers[-1] == resolution_answer(reference_verify_resolution_point, kernels, point)
    assert answers[-1] is CodimensionMismatch


def test_resolution_data_on_a_thin_quiver_with_2048_in_paths():
    """On thin 8-16^3-4 the annihilators are read-only views of the stacked
    path images, sum of d_i n_i = 16 * (8 + 128 + 2048) floats in all; the
    verifier accepts them, and rejects them after a change of 1e-3 to one
    entry."""
    q = layered_quiver([8, 16, 16, 16, 4])
    t = random_triple(q, thin_dims(q), np.random.default_rng(0))
    m = project(t)
    annihilators, images = resolution_data(t), moduli_module._path_images(t)
    assert sum(a.size for a in annihilators.values()) == 34_944
    assert sum(a.nbytes for a in annihilators.values()) == 279_552
    assert all(np.shares_memory(annihilators[i], images[i]) for i in q.hidden)
    last = q.hidden[-1]
    before = project(t).vertex_block(last)
    with pytest.raises(ValueError):
        annihilators[last][0, 0] = 5.0
    assert np.array_equal(project(t).vertex_block(last), before)
    assert verify_resolution_point(annihilators, m)
    changed = annihilators[last].copy()
    changed[0, 0] += 1e-3
    assert not verify_resolution_point({**annihilators, last: changed}, m)


def thin_of(t):
    return ThinRep(t.quiver, {aid: float(m[0, 0]) for aid, m in join(t).matrices.items()})


@pytest.mark.parametrize("seed", range(20))
def test_separation_recovers_gauge_on_thin_simple_points(seed):
    q = quiver_d4tilde()
    dims = thin_dims(q)
    rng = np.random.default_rng(seed)
    t1 = random_triple(q, dims, rng)
    g = random_gauge(q, dims, rng)
    t2 = act(g, t1)
    found = solve_morphism(thin_of(t1), thin_of(t2))
    assert found is not None
    moved = act({i: found[i] for i in q.hidden}, t1)
    for aid, m in moved.hidden_matrices.items():
        assert np.allclose(m, t2.hidden_matrices[aid], atol=1e-9)
    for i in q.hidden:
        assert np.allclose(moved.f[i], t2.f[i], atol=1e-9)
        assert np.allclose(moved.h[i], t2.h[i], atol=1e-9)


def test_separation_rejects_different_orbits():
    q = quiver_d4tilde()
    dims = thin_dims(q)
    t1 = random_triple(q, dims, np.random.default_rng(1))
    t2 = random_triple(q, dims, np.random.default_rng(2))
    assert solve_morphism(thin_of(t1), thin_of(t2)) is None


@pytest.mark.parametrize("seed", range(10))
def test_rank_bounded_by_hidden_dims(seed):
    q = quiver_d4tilde()
    rng = np.random.default_rng(seed)
    dims = {v: int(rng.integers(1, 3)) if v.startswith("v") else 1 for v in q.vertices}
    t = random_triple(q, dims, rng)
    r = project(t).rank_vector()
    assert all(r[i] <= dims[i] for i in q.hidden)


def test_simple_with_zero_weight_exists(ten_arrow_quiver):
    """Simplicity does not force all weights nonzero when a vertex has more
    than one feeding arrow."""
    q = ten_arrow_quiver
    weights = {a.id: 1.0 for a in q.arrows}
    weights["e12"] = 0.0
    t = thin_rep(q, weights)
    assert is_simple(t)
    assert project(t).rank_vector() == {i: 1 for i in q.hidden}
