"""Shared helpers for the test suite: oracle utilities and small fixture quivers."""

import math
import os

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from qmn.errors import NoConvergence, ShapeMismatch, SingularGauge
from qmn.examples import random_dag_quiver
from qmn.grad import GradientRep, get_loss
from qmn.linalg import RANK_TOL, SUBSPACE_TOL, num_rank
from qmn.moduli import ModuliPoint, project
from qmn.network import ACTIVATIONS, ForwardTrace, NeuralNetwork, in_matrix, out_matrix
from qmn.quiver import Arrow, Path, Quiver
from qmn.relu import BalanceResult
from qmn.rep import GAUGE_DET_TOL, DoubleFramedTriple, act, random_triple
from qmn.thincat import ThinRep

ACCEPTANCE_LINES = []

# On CI (GitHub Actions sets CI) a failing draw prints its @reproduce_failure
# blob, so a rare failure can be replayed from the log.  Draws stay random:
# hypothesis's own CI profile, which this one replaces, derandomizes them.
settings.register_profile("ci", deadline=None, print_blob=True, derandomize=False)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def forward_reference(net: NeuralNetwork, x) -> tuple:
    """Propagate x through the network in topological order.

    Returns (outputs at sinks in declaration order, trace of all vertex values).
    The per-sample scalar sweep the compiled engine replaced; the independent
    oracle for `network.forward`.
    """
    q = net.quiver
    x = np.asarray(x, dtype=float).ravel()
    inputs = net.input_vertices
    if x.shape[0] != len(inputs):
        raise ShapeMismatch(f"expected {len(inputs)} inputs, got {x.shape[0]}")
    xval = dict(zip(inputs, x))
    values, pre = {}, {}
    hidden = set(q.hidden)
    for v in q.topological:
        if v in net.bias:
            values[v] = 1.0
        elif v in xval:
            values[v] = xval[v]
        else:
            z = sum(net.weights.weights[a.id] * values[a.source] for a in q.arrows_into(v))
            pre[v] = z
            values[v] = ACTIVATIONS[net.activations[v]].fn(z) if v in hidden else z
    out = np.array([values[v] for v in q.sinks])
    return out, ForwardTrace(values=values, pre=pre)


def backprop_reference(net: NeuralNetwork, x, y, loss="mse") -> GradientRep:
    """Reverse topological sweep over `forward_reference`: the per-sample
    scalar chain rule the compiled engine replaced; the oracle for
    `grad.backprop`."""
    loss = get_loss(loss)
    z, trace = forward_reference(net, x)
    dz = loss.grad(z, y)
    q = net.quiver
    hidden = set(q.hidden)
    da = {v: 0.0 for v in q.vertices}
    dpre = {}
    for v, g in zip(q.sinks, dz):
        da[v] = float(g)
    for v in reversed(q.topological):
        if v in set(q.sources):
            continue
        if v in hidden:
            act = ACTIVATIONS[net.activations[v]]
            dpre[v] = da[v] * act.dfn(trace.pre[v])
        else:
            dpre[v] = da[v]
        for a in q.arrows_into(v):
            da[a.source] += net.weights.weights[a.id] * dpre[v]
    dw = {a.id: dpre[a.target] * trace.values[a.source] for a in q.arrows}
    return GradientRep(q, dw, vertex_adjoints=da)


def fd_gradient(net: NeuralNetwork, x, y, loss="mse", h=1e-5):
    """Central finite differences of the loss in every arrow weight; the
    independent oracle for backprop."""
    loss = get_loss(loss)
    base = dict(net.weights.weights)
    grads = {}
    for aid in base:
        wp, wm = dict(base), dict(base)
        wp[aid] += h
        wm[aid] -= h
        np_ = NeuralNetwork(ThinRep(net.quiver, wp), dict(net.activations), net.bias)
        nm = NeuralNetwork(ThinRep(net.quiver, wm), dict(net.activations), net.bias)
        grads[aid] = (
            loss.value(forward_reference(np_, x)[0], y) - loss.value(forward_reference(nm, x)[0], y)
        ) / (2 * h)
    return grads


def brute_force_paths(hq, start, end, max_len=None):
    """Path enumeration by breadth-first extension from the start; independent
    of the library's table, which extends paths into each vertex."""
    if max_len is None:
        max_len = len(hq.vertices)
    results = []
    frontier = [(start, ())]
    for _ in range(max_len + 1):
        nxt = []
        for v, arrows in frontier:
            if v == end:
                results.append(arrows)
            for a in hq.arrows:
                if a.source == v:
                    nxt.append((a.target, arrows + (a.id,)))
        frontier = nxt
    return sorted(results)


def longest_path_depths(q) -> dict:
    """Each vertex's longest-path distance from the sources of q: the most
    arrows on any `brute_force_paths` path from a source to it.  The oracle
    for `Quiver.levels`."""
    return {v: max(len(p) for s in q.sources for p in brute_force_paths(q, s, v)) for v in q.vertices}


def path_matrix(t: DoubleFramedTriple, p) -> np.ndarray:
    """V_w of a hidden path, multiplied out from the identity arrow by arrow;
    the independent oracle for the prefix-product path images of
    `qmn.moduli`."""
    m = np.eye(t.dims[p.start])
    for aid in p.arrows:
        m = t.hidden_matrices[aid] @ m
    return m


def path_network_matrix(t: DoubleFramedTriple) -> np.ndarray:
    """out_matrix @ assembled @ in_matrix: the network map read from the
    point's path coordinates h_j V_w f_i, the paper's side of the identity
    that `qmn.network.linear_map` computes by one sweep.  The path form has
    no slot for a vertex that is both a source and a sink."""
    q = t.quiver
    return out_matrix(q, t.dims, t.framing) @ project(t).assembled() @ in_matrix(q, t.dims, t.framing)


def equilibrate(a):
    """Rows, then columns, of a scaled to unit norm; zero ones stay zero.

    Diagonal scaling keeps the rank, but it removes the spread that row and
    column scales of 10^k put into the singular values of a product of blocks,
    which a relative rank tolerance would otherwise read as lost rank."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return a
    tiny = np.finfo(float).tiny  # norm floor: zero rows and columns stay zero
    a = a / np.maximum(np.sqrt(np.einsum("ij,ij->i", a, a)), tiny)[:, None]
    return a / np.maximum(np.sqrt(np.einsum("ij,ij->j", a, a)), tiny)


def paths_through(t: DoubleFramedTriple, i) -> tuple:
    """(in-paths, out-paths) of hidden vertex i from `brute_force_paths`:
    every j ~> i with u_j > 0 by start, then arrow-id sequence, and every
    i ~> k with w_k > 0 by end, then arrow-id sequence."""
    hq = t.quiver.hidden_quiver()
    u, w = t.framing.u, t.framing.w
    ins = [Path(j, i, ws) for j in hq.vertices if u[j] for ws in brute_force_paths(hq, j, i)]
    outs = [Path(i, k, ws) for k in hq.vertices if w[k] for ws in brute_force_paths(hq, i, k)]
    return ins, outs


def path_vertex_block(t: DoubleFramedTriple, ins, outs) -> np.ndarray:
    """q^(i) with rows by the out-paths `outs` and columns by the in-paths
    `ins` of i, each block h_k V_w f_j multiplied out by `path_matrix`."""
    u, w = t.framing.u, t.framing.w
    m = np.zeros((sum(w[p.end] for p in outs), sum(u[p.start] for p in ins)))
    r = 0
    for po in outs:
        c = 0
        for pi in ins:
            whole = Path(pi.start, po.end, pi.arrows + po.arrows)
            m[r : r + w[po.end], c : c + u[pi.start]] = t.h[po.end] @ path_matrix(t, whole) @ t.f[pi.start]
            c += u[pi.start]
        r += w[po.end]
    return m


def path_rank_vector(m: ModuliPoint, tol=RANK_TOL) -> dict:
    """Numerical rank of each vertex block q^(i), assembled from enumerated
    paths and `path_matrix` (reading neither `m.vertex_block` nor `m.blocks`)
    and equilibrated first.  The rank the path-span reading of
    `ModuliPoint.rank_vector` replaced; its independent oracle."""
    t = m.triple
    return {
        i: num_rank(equilibrate(path_vertex_block(t, *paths_through(t, i))), tol) for i in t.quiver.hidden
    }


def reference_images(t: DoubleFramedTriple) -> dict:
    """Cut thin SVDs (u, s, vt) of the stacked path images at each hidden
    vertex, one vertex and one np.linalg.svd at a time in topological order:
    the per-vertex sweep the level-stacked `moduli._images` replaced, and its
    oracle."""
    hq = t.quiver.hidden_quiver()
    images, passed = {}, {}
    for i in hq.topological:
        a = np.hstack([t.f[i]] + [t.hidden_matrices[a.id] @ passed[a.source] for a in hq.arrows_into(i)])
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        r = int(np.count_nonzero(s > SUBSPACE_TOL * s[0])) if s.size else 0
        images[i] = (u[:, :r], s[:r], vt[:r])
        passed[i] = u[:, :r] * s[:r]
    return images


def reference_svd_stacks(mats, compute_uv=True, full_matrices=False):
    """`linalg.svd_stacks` with one np.linalg.svd per matrix and no stack:
    each result gets a leading axis of length one."""
    out = []
    for k, a in enumerate(mats):
        res = np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
        out.append(([k], tuple(f[None] for f in res) if compute_uv else res[None]))
    return out


@st.composite
def parallel_dag_triples(draw):
    """A random triple on a random DAG whose hidden arrows are each doubled by
    a parallel arrow with probability 1/2, hidden dims 0-3, framing dims 1-2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 6)))
    hidden = set(base.hidden)
    inner = [a for a in base.arrows if a.source in hidden and a.target in hidden]
    twins = [Arrow(a.id + "'", a.source, a.target) for a in inner if draw(st.booleans())]
    q = Quiver(base.vertices, base.arrows + tuple(twins))
    dims = {v: draw(st.integers(0, 3) if v in hidden else st.integers(1, 2)) for v in q.vertices}
    return random_triple(q, dims, rng)


def reference_act(g: dict, t: DoubleFramedTriple) -> DoubleFramedTriple:
    """Base change at hidden vertices, one vertex check and one arrow product
    at a time: the per-arrow loop the stacked `rep.act` replaced, and its
    oracle.  Each block is checked in `q.hidden` order for presence, shape,
    finiteness and |det| >= GAUGE_DET_TOL * (largest entry)^d."""
    q = t.quiver
    blocks = {}
    for i in q.hidden:
        d, b = t.dims[i], g.get(i)
        if b is None:
            raise ShapeMismatch(f"no gauge block at {i!r}")
        b = np.asarray(b, dtype=float)
        if b.ndim == 0:
            b = b.reshape(1, 1)
        if b.shape != (d, d):
            raise ShapeMismatch(f"gauge block at {i!r} has shape {b.shape}, expected {(d, d)}")
        if not np.isfinite(b).all():
            raise SingularGauge(f"gauge block at {i!r} is not finite")
        scale = np.abs(b).max(initial=0.0)
        if d and (scale == 0.0 or abs(np.linalg.det(b)) < GAUGE_DET_TOL * scale**d):
            raise SingularGauge(f"gauge block at {i!r} is numerically singular")
        blocks[i] = b
    inv = {i: np.linalg.inv(blocks[i]) for i in q.hidden}
    mats = {
        a.id: blocks[a.target] @ t.hidden_matrices[a.id] @ inv[a.source] for a in q.hidden_quiver().arrows
    }
    f = {i: blocks[i] @ t.f[i] for i in q.hidden}
    h = {i: t.h[i] @ inv[i] for i in q.hidden}
    return DoubleFramedTriple(q, dict(t.dims), mats, f, h)


def compose_gauge(g1: dict, g2: dict) -> dict:
    """The vertex-wise product g1 g2 of two gauges."""
    return {i: np.asarray(g1[i]) @ np.asarray(g2[i]) for i in g1}


def deframed_matrices(t: DoubleFramedTriple, dq) -> dict:
    """Matrices of t on its one-point extension dq (`rep.deframe`): columns
    of f as vectors, rows of h as covectors."""
    mats = dict(t.hidden_matrices)
    for i in t.quiver.hidden:
        for k in range(t.framing.u[i]):
            mats[f"in[{i}][{k}]"] = t.f[i][:, k : k + 1]
        for l in range(t.framing.w[i]):
            mats[f"out[{i}][{l}]"] = t.h[i][l : l + 1, :]
    return mats


def rel_err(got, want):
    """max-norm relative error with a floor of 1 on the reference scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.abs(want).max()) if want.size else 0.0, 1.0)
    diff = float(np.abs(got - want).max()) if want.size or got.size else 0.0
    return diff / scale


def balance_reference(
    t: DoubleFramedTriple, target: float, tol=1e-8, max_sweeps=10**4
) -> BalanceResult:
    """Find positive scalars g_i with the momentum of g . t on the target level.

    Cyclic coordinate descent: with the other factors frozen, the vertex value
    is A s - B / s in s = g_i^2, monotone in s, so each update is exact.
    Raises NoConvergence when the residual stalls above tol.  The slow
    reference that `relu.balance` (Newton on the same potential) replaced.
    """
    q = t.quiver
    if any(t.dims[i] != 1 for i in q.hidden):
        raise ShapeMismatch("balancing is implemented for thin hidden dimensions")
    hq = q.hidden_quiver()
    target = float(target)
    s = {i: 1.0 for i in q.hidden}  # squared gauge factors

    def vertex_masses(i):
        a = float(np.sum(t.f[i] ** 2))
        for ar in hq.arrows_into(i):
            a += t.hidden_matrices[ar.id][0, 0] ** 2 / s[ar.source]
        b = float(np.sum(t.h[i] ** 2))
        for ar in hq.arrows_out_of(i):
            b += t.hidden_matrices[ar.id][0, 0] ** 2 * s[ar.target]
        return a, b

    def residual():
        worst = 0.0
        for i in q.hidden:
            a, b = vertex_masses(i)
            worst = max(worst, abs(a * s[i] - b / s[i] - target))
        return worst

    sweeps = 0
    res = residual()
    prev = None
    for sweeps in range(1, max_sweeps + 1):
        for i in q.hidden:
            a, b = vertex_masses(i)
            if a > 0.0:
                s[i] = (target + math.sqrt(target**2 + 4.0 * a * b)) / (2.0 * a)
                if s[i] <= 0.0:
                    # target <= 0 with b == 0: the level is unreachable here
                    s[i] = 1.0
            elif b > 0.0 and target < 0.0:
                s[i] = b / (-target)
            # a == 0, b == 0, or unreachable sign: leave s[i]; residual decides
        res = residual()
        if res <= tol or res == prev:
            break
        prev = res
    if res > tol:
        raise NoConvergence(sweeps, res)
    gauge = {i: np.array([[math.sqrt(s[i])]]) for i in q.hidden}
    return BalanceResult(gauge=gauge, triple=act(gauge, t), sweeps=sweeps, residual=res)


def layered_quiver(widths, network=False):
    """Fully connected layered quiver; the first and last layers are the
    sources and sinks.  Vertex `L{k}_{j}` is unit j of layer k."""
    layers = [[f"L{k}_{j}" for j in range(w)] for k, w in enumerate(widths)]
    arrows = [
        (f"{s}>{t}", s, t) for lo, hi in zip(layers, layers[1:]) for s in lo for t in hi
    ]
    return Quiver([v for layer in layers for v in layer], arrows, network=network)


@pytest.fixture
def diamond_quiver():
    """One source, three hidden vertices in a diamond, one sink; 6 arrows."""
    return Quiver(
        ["s", "p", "q1", "q2", "r", "t"],
        [
            ("sp", "s", "p"),
            ("pq1", "p", "q1"),
            ("pq2", "p", "q2"),
            ("q1r", "q1", "r"),
            ("q2r", "q2", "r"),
            ("rt", "r", "t"),
        ],
    )


@pytest.fixture
def ten_arrow_quiver():
    """Two sources, three hidden, two sinks; exactly 10 arrows."""
    return Quiver(
        ["s1", "s2", "h1", "h2", "h3", "t1", "t2"],
        [
            ("i1", "s1", "h1"),
            ("i2", "s2", "h1"),
            ("i3", "s1", "h2"),
            ("e12", "h1", "h2"),
            ("e13", "h1", "h3"),
            ("e23", "h2", "h3"),
            ("o1", "h2", "t1"),
            ("o2", "h3", "t1"),
            ("o3", "h3", "t2"),
            ("o4", "h1", "t2"),
        ],
    )
