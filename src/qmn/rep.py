"""Representations, the gauge action at hidden vertices, and the framing dictionary.

A representation assigns to each arrow i->j a matrix of shape (d_j, d_i).  The
hidden-gauge group acts by base change at hidden vertices only.  `split` and
`join` convert between a representation of the whole quiver and a triple
(hidden representation, framing maps f_i, coframing maps h_i); they are exact
inverses, no arithmetic involved.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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

    Frozen, with read-only mappings of the dims and coerced matrices, so what is
    computed from it can be cached on it: `_memo` holds such results (the
    sweeps of `qmn.moduli`), filled on first use.  The arrays themselves are
    shared with the caller, not copied; writing into them is not supported.
    """

    quiver: Quiver
    dims: Mapping
    hidden_matrices: Mapping
    f: Mapping
    h: Mapping
    framing: FramingData
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        hq = self.quiver.hidden_quiver()
        hidden = self.quiver.hidden
        mats = {
            a.id: as_matrix(self.hidden_matrices[a.id], self.dims[a.target], self.dims[a.source])
            for a in hq.arrows
        }
        f = {i: as_matrix(self.f[i], self.dims[i], self.framing.u[i]) for i in hidden}
        h = {i: as_matrix(self.h[i], self.framing.w[i], self.dims[i]) for i in hidden}
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        object.__setattr__(self, "hidden_matrices", MappingProxyType(mats))
        object.__setattr__(self, "f", MappingProxyType(f))
        object.__setattr__(self, "h", MappingProxyType(h))

    def hidden_dims(self):
        return {i: self.dims[i] for i in self.quiver.hidden}


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
    fr = framing_data(q, r.dims)
    hq = q.hidden_quiver()
    hidden_mats = {a.id: r.matrices[a.id] for a in hq.arrows}
    f, h = {}, {}
    for i in q.hidden:
        d = r.dims[i]
        cols = [r.matrices[a.id] for a, _ in fr.in_slots[i]]
        f[i] = np.hstack(cols) if cols else np.zeros((d, 0))
        rows = [r.matrices[a.id] for a, _ in fr.out_slots[i]]
        h[i] = np.vstack(rows) if rows else np.zeros((0, d))
    return DoubleFramedTriple(q, dict(r.dims), hidden_mats, f, h, fr)


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


def check_gauge_block(g, vertex):
    g = np.asarray(g, dtype=float)
    if g.ndim == 0:
        g = g.reshape(1, 1)
    d = g.shape[0]
    if g.shape != (d, d):
        raise ShapeMismatch(f"gauge block at {vertex!r} is not square")
    scale = np.abs(g).max()
    if scale == 0.0 or abs(np.linalg.det(g)) < GAUGE_DET_TOL * scale**d:
        raise SingularGauge(f"gauge block at {vertex!r} is numerically singular")
    return g


def compose_gauge(g1: dict, g2: dict) -> dict:
    return {i: np.asarray(g1[i]) @ np.asarray(g2[i]) for i in g1}


def act(g: dict, t: DoubleFramedTriple) -> DoubleFramedTriple:
    """Base change at hidden vertices: V_a -> g V_a g^-1, f -> g f, h -> h g^-1."""
    q = t.quiver
    blocks = {i: check_gauge_block(g[i], i) for i in q.hidden}
    inv = {i: np.linalg.inv(blocks[i]) for i in q.hidden}
    hq = q.hidden_quiver()
    mats = {
        a.id: blocks[a.target] @ t.hidden_matrices[a.id] @ inv[a.source] for a in hq.arrows
    }
    f = {i: blocks[i] @ t.f[i] for i in q.hidden}
    h = {i: t.h[i] @ inv[i] for i in q.hidden}
    return DoubleFramedTriple(q, dict(t.dims), mats, f, h, t.framing)


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
