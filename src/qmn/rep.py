"""Representations, the gauge action at hidden vertices, and the framing dictionary.

A representation assigns to each arrow i->j a matrix of shape (d_j, d_i).  The
hidden-gauge group acts by base change at hidden vertices only.  `split` and
`join` convert between a representation of the whole quiver and a triple
(hidden representation, framing maps f_i, coframing maps h_i); they are exact
inverses, no arithmetic involved.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import wraps
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatch, SingularGauge, UnframableArrow
from .quiver import Arrow, FramingData, Quiver, framing_data

GAUGE_DET_TOL = 1e-10


def as_matrix(value, rows, cols):
    """Coerce scalars / nested lists to a float matrix of the declared shape."""
    m = np.asarray(value, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        # a vector is a single column or single row depending on the target shape
        if rows == m.shape[0] and cols == 1:
            m = m.reshape(rows, 1)
        elif cols == m.shape[0] and rows == 1:
            m = m.reshape(1, cols)
    if m.shape != (rows, cols):
        raise ShapeMismatch(f"expected shape {(rows, cols)}, got {m.shape}")
    return m


@dataclass
class Representation:
    """Matrices on every arrow of a quiver, with a dimension vector."""

    quiver: Quiver
    dims: dict
    matrices: dict

    def __post_init__(self):
        for v in self.quiver.vertices:
            if v not in self.dims or self.dims[v] < 0:
                raise ShapeMismatch(f"dimension missing or negative at vertex {v!r}")
        mats = {}
        for a in self.quiver.arrows:
            if a.id not in self.matrices:
                raise ShapeMismatch(f"no matrix for arrow {a.id!r}")
            mats[a.id] = as_matrix(self.matrices[a.id], self.dims[a.target], self.dims[a.source])
        self.matrices = mats

    def is_thin(self):
        return all(d == 1 for d in self.dims.values())


@dataclass(frozen=True)
class DoubleFramedTriple:
    """Hidden representation plus framing maps f_i : U_i -> V_i and h_i : V_i -> W_i.

    The framing (u_i, w_i and the slots) is not given: it follows from the
    quiver and the dims, and `layout` holds it with the rest of what they fix.
    Frozen, with read-only mappings of the dims and coerced matrices, so what is
    computed from it can be cached on it: `_memo` holds such results (its
    `dual` and the sweeps of `qmn.moduli`), filled on first use.  The arrays
    themselves are shared with the caller, not copied; writing into them is
    not supported.
    """

    quiver: Quiver
    dims: Mapping
    hidden_matrices: Mapping
    f: Mapping
    h: Mapping
    layout: "Layout" = field(init=False, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lay = layout(self.quiver, self.dims)
        hq = self.quiver.hidden_quiver()
        hidden, fr = self.quiver.hidden, lay.framing
        mats = {
            a.id: as_matrix(self.hidden_matrices[a.id], self.dims[a.target], self.dims[a.source])
            for a in hq.arrows
        }
        f = {i: as_matrix(self.f[i], self.dims[i], fr.u[i]) for i in hidden}
        h = {i: as_matrix(self.h[i], fr.w[i], self.dims[i]) for i in hidden}
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        object.__setattr__(self, "hidden_matrices", MappingProxyType(mats))
        object.__setattr__(self, "f", MappingProxyType(f))
        object.__setattr__(self, "h", MappingProxyType(h))
        object.__setattr__(self, "layout", lay)

    @classmethod
    def _built(cls, quiver, dims, hidden_matrices, f, h, layout):
        """A triple on arrays qmn has just built itself (`act`, `dual`,
        `closed_orbit_representative`): each float64 of its declared shape,
        keyed in the order the public constructor gives, with the `layout`
        of its quiver and dims.  The fields are set as given, the mappings
        read-only and `_memo` fresh; nothing is coerced again, which would
        cost as much as the product that built them."""
        t = object.__new__(cls)
        fields = (
            ("quiver", quiver),
            ("dims", MappingProxyType(dict(dims))),
            ("hidden_matrices", MappingProxyType(hidden_matrices)),
            ("f", MappingProxyType(f)),
            ("h", MappingProxyType(h)),
            ("layout", layout),
            ("_memo", {}),
        )
        for name, value in fields:
            object.__setattr__(t, name, value)
        return t

    @property
    def framing(self) -> FramingData:
        """`framing_data(quiver, dims)`, one object per quiver and dims."""
        return self.layout.framing

    def hidden_dims(self):
        return {i: self.dims[i] for i in self.quiver.hidden}


def memoised(compute):
    """Cache compute(t, *args) in t._memo on first use, one entry per tuple of
    further arguments; t is a triple or a quiver, neither of which lets a
    field it was computed from be reassigned."""

    @wraps(compute)
    def cached(t, *args):
        key = (compute.__name__, *args)
        if key not in t._memo:
            t._memo[key] = compute(t, *args)
        return t._memo[key]

    return cached


@memoised
def dual(t: DoubleFramedTriple) -> DoubleFramedTriple:
    """The transpose triple (V^T, h^T, f^T) on `t.quiver.opposite`, framed by
    t's coframing: what a forward computation finds on it, t has in reverse
    (co-images, subrepresentations killed by h, the out-arrow half of the
    moment map).  Its arrays are transposed views of t's, and it holds no link
    back to t, so the memo makes no reference cycle; dual(dual(t)) is on
    t's quiver with t's arrays.  Its framing is the one t's dims give the
    opposite quiver."""
    q = t.quiver
    return DoubleFramedTriple._built(
        q.opposite,
        t.dims,
        {k: m.T for k, m in t.hidden_matrices.items()},
        {i: m.T for i, m in t.h.items()},
        {i: m.T for i, m in t.f.items()},
        layout(q.opposite, t.dims),
    )


def split(r: Representation) -> DoubleFramedTriple:
    """Regroup a representation of Q into (hidden part, f, h).

    Framing maps stack the source-arrow matrices column-blockwise in arrow
    declaration order; coframing maps stack sink-arrow matrices row-blockwise.
    """
    q = r.quiver
    if q.source_sink_arrows:
        raise UnframableArrow(
            f"arrows {[a.id for a in q.source_sink_arrows]} run source->sink; the framing split has no slot for them"
        )
    fr = layout(q, r.dims).framing
    hq = q.hidden_quiver()
    hidden_mats = {a.id: r.matrices[a.id] for a in hq.arrows}
    f, h = {}, {}
    for i in q.hidden:
        d = r.dims[i]
        cols = [r.matrices[a.id] for a, _ in fr.in_slots[i]]
        f[i] = np.hstack(cols) if cols else np.zeros((d, 0))
        rows = [r.matrices[a.id] for a, _ in fr.out_slots[i]]
        h[i] = np.vstack(rows) if rows else np.zeros((0, d))
    return DoubleFramedTriple(q, dict(r.dims), hidden_mats, f, h)


def join(t: DoubleFramedTriple) -> Representation:
    """Inverse of `split`; bit-exact round trip."""
    q = t.quiver
    mats = dict(t.hidden_matrices)
    for i in q.hidden:
        off = 0
        for a, d in t.framing.in_slots[i]:
            mats[a.id] = t.f[i][:, off : off + d]
            off += d
        off = 0
        for a, d in t.framing.out_slots[i]:
            mats[a.id] = t.h[i][off : off + d, :]
            off += d
    return Representation(q, dict(t.dims), mats)


def _gauge_block(g, vertex, d):
    """The gauge block at `vertex` as a float (d, d) matrix; None means the
    gauge has no block there."""
    if g is None:
        raise ShapeMismatch(f"no gauge block at {vertex!r}")
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        g = g.reshape(1, 1)
    if g.shape != (d, d):
        raise ShapeMismatch(f"gauge block at {vertex!r} has shape {g.shape}, expected {(d, d)}")
    return g


def _inverted(blocks, vertices):
    """Inverses of the stacked (n, d, d) gauge blocks of `vertices`, which must
    all be finite and numerically invertible: |det| at least GAUGE_DET_TOL
    times the d-th power of the largest entry.  One check of each kind covers
    the whole stack, and a failure names the first vertex that fails it."""
    bad = ~np.isfinite(blocks).all(axis=(1, 2))
    if bad.any():
        raise SingularGauge(f"gauge block at {vertices[bad.argmax()]!r} is not finite")
    d = blocks.shape[1]
    if d:
        scale = np.abs(blocks).max(axis=(1, 2))
        bad = (scale == 0.0) | (np.abs(np.linalg.det(blocks)) < GAUGE_DET_TOL * scale**d)
        if bad.any():
            raise SingularGauge(f"gauge block at {vertices[bad.argmax()]!r} is numerically singular")
    return np.linalg.inv(blocks)


def _stacked(mats, keys):
    """The matrices mats[k] of one shape (r, c) as one (n, r, c) array."""
    r, c = mats[keys[0]].shape
    return np.concatenate([mats[k] for k in keys]).reshape(len(keys), r, c)


def compose_gauge(g1: dict, g2: dict) -> dict:
    return {i: np.asarray(g1[i]) @ np.asarray(g2[i]) for i in g1}


class _Moves(NamedTuple):
    """How `act` moves one mapping (the hidden arrows, f or h): its keys in
    the order of the mapping it returns, and the matrices grouped by shape."""

    keys: tuple
    order: tuple  # where each key's matrix lands among the groups' products
    groups: tuple  # (keys, r, c, x rows, y rows) per shape (r, c); rows may be None


class Layout(NamedTuple):
    """What a quiver and a dims vector fix for every triple on them: the
    framing, and how `act` moves the triple apart from the gauge (the hidden
    vertices of each block size, and for each mapping its shape groups, each
    with the rows of its gauge blocks in their size's stack)."""

    framing: FramingData
    sizes: tuple  # (d, vertices) per block size d, in q.hidden order
    arrows: _Moves
    f: _Moves
    h: _Moves


def layout(q: Quiver, dims) -> Layout:
    """The `Layout` of q under dims, built once per quiver and dims vector."""
    return _layout(q, tuple(dims[v] for v in q.vertices))


@memoised
def _layout(q: Quiver, dims):
    """`layout` of q under dims, a tuple in q.vertices order."""
    dim = dict(zip(q.vertices, dims))
    fr = framing_data(q, dim)
    by_size = {}
    for i in q.hidden:
        by_size.setdefault(dim[i], []).append(i)
    at = {i: k for vertices in by_size.values() for k, i in enumerate(vertices)}  # row in its stack

    def rows(vertices):
        return None if vertices[0] is None else np.array([at[v] for v in vertices], dtype=np.intp)

    def moves(terms):
        # terms: (key, shape, x, y) for g_x @ mats[key] @ g_y^-1; x or y None
        # drops that factor
        by_shape = {}
        for term in terms:
            by_shape.setdefault(term[1], []).append(term)
        groups, placed = [], []
        for (r, c), group in by_shape.items():
            group_keys, _, xs, ys = zip(*group)
            groups.append((group_keys, r, c, rows(xs), rows(ys)))
            placed += group_keys
        position = {k: n for n, k in enumerate(placed)}
        keys = tuple(term[0] for term in terms)
        return _Moves(keys, tuple(position[k] for k in keys), tuple(groups))

    arrows = [(a.id, (dim[a.target], dim[a.source]), a.target, a.source) for a in q.hidden_quiver().arrows]
    return Layout(
        fr,
        tuple((d, tuple(vertices)) for d, vertices in by_size.items()),
        moves(arrows),
        moves([(i, (dim[i], fr.u[i]), i, None) for i in q.hidden]),
        moves([(i, (fr.w[i], dim[i]), None, i) for i in q.hidden]),
    )


def act(g: dict, t: DoubleFramedTriple) -> DoubleFramedTriple:
    """Base change at hidden vertices: V_a -> g V_a g^-1, f -> g f, h -> h g^-1.

    Every block is checked before anything is computed: a missing block or
    one of the wrong size raises ShapeMismatch, a non-finite or numerically
    singular one SingularGauge, each naming the vertex.  The blocks of one
    size are checked and inverted as one stack, and the products of one
    block shape run as one stacked product, the gauge blocks gathered by
    index; which blocks and matrices go where is t's `layout`."""
    q, dims, plan = t.quiver, t.dims, t.layout
    blocks = {i: _gauge_block(g.get(i), i, dims[i]) for i in q.hidden}
    gauge, inverse = {}, {}
    for d, vertices in plan.sizes:
        gauge[d] = _stacked(blocks, vertices)
        inverse[d] = _inverted(gauge[d], vertices)

    def moved(mats, moves):
        products = []
        for keys, r, c, xs, ys in moves.groups:
            prod = _stacked(mats, keys)
            if xs is not None:
                prod = gauge[r][xs] @ prod
            if ys is not None:
                prod = prod @ inverse[c][ys]
            products.extend(prod)
        return dict(zip(moves.keys, map(products.__getitem__, moves.order)))

    return DoubleFramedTriple._built(
        q, dims, moved(t.hidden_matrices, plan.arrows), moved(t.f, plan.f), moved(t.h, plan.h), plan
    )


@dataclass(frozen=True)
class DeframedQuiver:
    """One-point extension trading the framing for arrows through a vertex `infinity`.

    Intentionally cyclic, so it is stored as raw vertex/arrow lists rather
    than as a validated acyclic `Quiver`.
    """

    vertices: tuple
    arrows: tuple  # Arrow namedtuples reused; ids fresh
    dims: dict
    infinity: str = "infinity"


def deframe(q: Quiver, dims: dict) -> DeframedQuiver:
    """Build the one-point extension: u_i arrows infinity->i, w_i arrows i->infinity."""
    fr = framing_data(q, dims)
    inf = "infinity"
    while inf in q.vertices:
        inf += "_"
    arrows = list(q.hidden_quiver().arrows)
    for i in q.hidden:
        for k in range(fr.u[i]):
            arrows.append(Arrow(f"in[{i}][{k}]", inf, i))
        for l in range(fr.w[i]):
            arrows.append(Arrow(f"out[{i}][{l}]", i, inf))
    d = {**{i: dims[i] for i in q.hidden}, inf: 1}
    return DeframedQuiver(vertices=q.hidden + (inf,), arrows=tuple(arrows), dims=d, infinity=inf)


def deframed_matrices(t: DoubleFramedTriple, dq: DeframedQuiver) -> dict:
    """Matrices for the one-point extension: columns of f as vectors, rows of h as covectors."""
    mats = dict(t.hidden_matrices)
    for i in t.quiver.hidden:
        for k in range(t.framing.u[i]):
            mats[f"in[{i}][{k}]"] = t.f[i][:, k : k + 1]
        for l in range(t.framing.w[i]):
            mats[f"out[{i}][{l}]"] = t.h[i][l : l + 1, :]
    return mats


@dataclass(frozen=True)
class TwoPointExtension:
    """Variant with separate start/end framing vertices; acyclic, with its expected
    moduli dimension (one less than the one-point version)."""

    quiver: Quiver
    dims: dict
    expected_dim: int


def doubleframe_variant(q: Quiver, dims: dict) -> TwoPointExtension:
    """`deframe` with the u_i arrows out of `infinity` moved to a new source `origin`."""
    dq = deframe(q, dims)
    zero = "origin"
    while zero in q.vertices:
        zero += "_"
    arrows = [Arrow(a.id, zero, a.target) if a.source == dq.infinity else a for a in dq.arrows]
    return TwoPointExtension(
        quiver=Quiver((zero,) + dq.vertices, arrows),
        dims={zero: 1, **dq.dims},
        expected_dim=rep_space_dim(q, dims) - gauge_dim(q, dims) - 1,
    )


def rep_space_dim(q: Quiver, dims: dict) -> int:
    return sum(dims[a.source] * dims[a.target] for a in q.arrows)


def gauge_dim(q: Quiver, dims: dict) -> int:
    return sum(dims[i] ** 2 for i in q.hidden)


def random_representation(q: Quiver, dims: dict, rng) -> Representation:
    mats = {
        a.id: rng.standard_normal((dims[a.target], dims[a.source])) for a in q.arrows
    }
    return Representation(q, dict(dims), mats)


def random_triple(q: Quiver, dims: dict, rng) -> DoubleFramedTriple:
    return split(random_representation(q, dims, rng))


def random_gauge(q: Quiver, dims: dict, rng, positive=False) -> dict:
    """Random invertible gauge blocks; `positive` restricts to positive scalars
    (only meaningful for thin dimensions)."""
    g = {}
    for i in q.hidden:
        d = dims[i]
        if positive:
            if d != 1:
                raise ShapeMismatch("positive gauges are defined for thin dimensions")
            g[i] = np.array([[np.exp(rng.uniform(-1.0, 1.0))]])
        else:
            while True:
                m = rng.standard_normal((d, d))
                if abs(np.linalg.det(m)) > 1e-3:
                    g[i] = m
                    break
    return g
