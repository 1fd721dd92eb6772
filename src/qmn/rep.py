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
from itertools import chain
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


@dataclass(frozen=True, eq=False)
class DoubleFramedTriple:
    """Hidden representation plus framing maps f_i : U_i -> V_i and h_i : V_i -> W_i.

    The framing (u_i, w_i and the slots) is not given: it follows from the
    quiver and the dims, and `layout` holds it with the rest of what they fix.
    The matrices are copied once into `stacks`, one read-only float64
    (n, r, c) array per shape group of the layout; `hidden_matrices`, `f` and
    `h` map the hidden arrows and vertices, in quiver order, to views of
    them.  Writing into any raises ValueError.  Frozen, with read-only dims,
    so what is computed from it is cached in `_memo` (its `dual` and the
    sweeps of `qmn.moduli`), filled on first use.
    """

    quiver: Quiver
    dims: Mapping
    hidden_matrices: Mapping
    f: Mapping
    h: Mapping
    stacks: "Sides" = field(init=False, repr=False)
    layout: "Layout" = field(init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        lay = layout(self.quiver, self.dims)

        def stacked(side, moves):  # coerced group by group into fresh stacks
            return tuple(
                np.concatenate([as_matrix(side[k], r, c) for k in keys]).reshape(len(keys), r, c)
                for keys, r, c, _, _ in moves.groups
            )

        stacks = Sides(*map(stacked, (self.hidden_matrices, self.f, self.h), lay.moves))
        self._set(self.quiver, MappingProxyType(dict(self.dims)), stacks, lay)

    @classmethod
    def _built(cls, quiver, dims, stacks, layout):
        """A triple on float64 stacks qmn has just built, grouped by the
        `layout` of its quiver and dims (`act`, `dual`, the closed orbit), and
        the read-only dims of the triple it was built from; nothing is
        coerced again, which would cost as much as building the stacks."""
        t = object.__new__(cls)
        t._set(quiver, dims, stacks, layout)
        return t

    def _set(self, quiver, dims, stacks, layout):
        """Set every field from the stacks, which become read-only."""
        for stack in (*stacks.arrows, *stacks.f, *stacks.h):
            stack.setflags(write=False)
        arrows, f, h = (_Views(side, moves.at) for side, moves in zip(stacks, layout.moves))
        fields = dict(quiver=quiver, dims=dims, hidden_matrices=arrows, f=f, h=h)
        vars(self).update(fields, stacks=stacks, layout=layout, _memo={})

    def __eq__(self, other):
        """Same quiver and dims, and equal matrices, stack by stack
        (np.array_equal); the memo and which arrays hold them do not count."""
        if not isinstance(other, DoubleFramedTriple):
            return NotImplemented
        same = self.quiver == other.quiver and self.dims == other.dims
        return same and all(np.array_equal(a, b) for x, y in zip(self.stacks, other.stacks) for a, b in zip(x, y))

    @property
    def framing(self) -> FramingData:
        """`framing_data(quiver, dims)`, one object per quiver and dims."""
        return self.layout.framing

    def hidden_dims(self):
        return {i: self.dims[i] for i in self.quiver.hidden}


class _Views(Mapping):
    """Read-only: each key to a view of its row in its shape group's stack."""

    def __init__(self, stacks, at):
        self._stacks, self._at = stacks, at  # key -> (group, row)

    def __getitem__(self, key):
        group, row = self._at[key]
        return self._stacks[group][row]

    def __iter__(self):
        return iter(self._at)

    def __len__(self):
        return len(self._at)

    def __repr__(self):
        return repr(dict(self))


def memoised(compute):
    """Cache compute(t, *args) in t._memo on first use, one entry per tuple of
    further arguments; t is a triple, a quiver or a layout, none of which lets
    a field it was computed from be reassigned."""

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
    moment map).  The opposite layout's shape groups are the transposes of
    t's, in the same order, with f and h traded, so its stacks are t's,
    transposed (views), and it holds no link back to t: the memo makes no
    reference cycle, and dual(dual(t)) is on t's quiver with t's arrays."""
    q = t.quiver
    arrows, f, h = (tuple(stack.swapaxes(1, 2) for stack in side) for side in t.stacks)
    return DoubleFramedTriple._built(q.opposite, t.dims, Sides(arrows, h, f), layout(q.opposite, t.dims))


def split(r: Representation) -> DoubleFramedTriple:
    """Regroup a representation of Q into (hidden part, f, h).

    Framing maps stack the source-arrow matrices column-blockwise in arrow
    declaration order; coframing maps stack sink-arrow matrices row-blockwise.
    A matrix of the wrong shape (set after construction) raises ShapeMismatch.
    """
    q = r.quiver
    if q.source_sink_arrows:
        raise UnframableArrow(
            f"arrows {[a.id for a in q.source_sink_arrows]} run source->sink; the framing split has no slot for them"
        )
    for a in q.arrows:
        m, shape = r.matrices.get(a.id), (r.dims[a.target], r.dims[a.source])
        if getattr(m, "shape", None) != shape and np.shape(m) != shape:
            raise ShapeMismatch(f"arrow {a.id!r}: expected shape {shape}, got {np.shape(m)}")
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


class _Moves(NamedTuple):
    """One mapping of a triple (the hidden arrows, f or h) grouped by matrix
    shape, in the order of first appearance."""

    at: dict  # each key, in the mapping's order, to (group, row in its stack)
    groups: tuple  # (keys, r, c, x rows, y rows) per shape (r, c); rows may be None


class Sides(NamedTuple):
    """One value per mapping of a triple: for its stacks, a tuple of (n, r, c)
    arrays, one per shape group; for its layout, a `_Moves`."""

    arrows: tuple
    f: tuple
    h: tuple


@dataclass(frozen=True, eq=False, repr=False)
class Layout:
    """What a quiver and a dims vector (in `quiver.vertices` order) fix for
    every triple on them: the framing, the shape groups its matrices are
    stacked by, and how `act` moves them (the hidden vertices of each block
    size, and per shape group the rows of its gauge blocks in their size's
    stack).  `_memo` keeps what `rep.memoised` readers derive from the layout
    alone for the quiver's life: the level plans of `qmn.moduli`'s sweeps and
    of `assembled`; it keeps no path."""

    quiver: Quiver
    dims: tuple
    framing: FramingData
    sizes: tuple  # (d, vertices) per block size d, in q.hidden order
    moves: Sides
    _memo: dict = field(default_factory=dict)


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
        groups, place = [], {}
        for g, ((r, c), group) in enumerate(by_shape.items()):
            keys, _, xs, ys = zip(*group)
            groups.append((keys, r, c, rows(xs), rows(ys)))
            place.update((k, (g, row)) for row, k in enumerate(keys))
        return _Moves({term[0]: place[term[0]] for term in terms}, tuple(groups))

    arrows = [(a.id, (dim[a.target], dim[a.source]), a.target, a.source) for a in q.hidden_quiver().arrows]
    f = [(i, (dim[i], fr.u[i]), i, None) for i in q.hidden]
    h = [(i, (fr.w[i], dim[i]), None, i) for i in q.hidden]
    sizes = tuple((d, tuple(vertices)) for d, vertices in by_size.items())
    return Layout(q, dims, fr, sizes, Sides(*map(moves, (arrows, f, h))))


def act(g: dict, t: DoubleFramedTriple) -> DoubleFramedTriple:
    """Base change at hidden vertices: V_a -> g V_a g^-1, f -> g f, h -> h g^-1.

    Every block is checked before anything is computed: a missing block or
    one of the wrong size raises ShapeMismatch, a non-finite or numerically
    singular one SingularGauge, each naming the vertex.  The blocks of one
    size are stacked in t's `layout.sizes` order and moved by `act_stacked`."""
    blocks = {i: _gauge_block(g.get(i), i, t.dims[i]) for i in t.quiver.hidden}
    gauge = {d: np.concatenate([blocks[i] for i in vs]).reshape(len(vs), d, d) for d, vs in t.layout.sizes}
    return act_stacked(gauge, t)


def act_stacked(gauge: dict, t: DoubleFramedTriple) -> DoubleFramedTriple:
    """`act` on gauge blocks already stacked: size d to a float (n, d, d)
    stack in t's `layout.sizes` order, not coerced again.  Each stack is
    checked and inverted at once, and each of t's nonempty stacks is moved by
    one stacked product, the gauge blocks gathered by index; which blocks go
    where is t's `layout`."""
    q, dims, plan = t.quiver, t.dims, t.layout
    inverse = {d: _inverted(gauge[d], vertices) for d, vertices in plan.sizes}

    def moved(prod, group):
        _, r, c, xs, ys = group
        if xs is not None and prod.size:
            prod = gauge[r][xs] @ prod
        if ys is not None and prod.size:
            prod = prod @ inverse[c][ys]
        return prod

    stacks = Sides(*(tuple(map(moved, side, moves.groups)) for side, moves in zip(t.stacks, plan.moves)))
    return DoubleFramedTriple._built(q, dims, stacks, plan)


class Level(NamedTuple):
    lo: int  # the level reads rows lo:start
    start: int  # and writes rows start:stop
    stop: int
    block: slice  # its (stop - start, start - lo) block in the flat buffer


class BlockPlan(NamedTuple):
    """`block_plan`: each vertex's first row, in row order, the first row of
    each arrow's source, a `Level` per level after the first, each matrix
    entry's place in one flat buffer of `size` floats that holds the level
    blocks back to back, and the number of rows."""

    row: dict
    source_row: np.ndarray
    levels: tuple
    at: np.ndarray
    size: int
    n_rows: int

    def blocks(self, arrays) -> list:
        """The level blocks of the arrows' matrices, raveled from `arrays` in
        `at` order: views of one fresh buffer, where parallel arrows add up."""
        buffer = np.bincount(self.at, np.concatenate([np.zeros(0), *map(np.ravel, arrays)]), self.size)
        return [buffer[lv.block].reshape(lv.stop - lv.start, lv.start - lv.lo) for lv in self.levels]

    def sweep(self, blocks, values):
        """Write each later level's rows of `values` as its block times the
        rows it reads, yielding the level once they are written."""
        for lv, m in zip(self.levels, blocks):
            np.matmul(m, values[lv.lo : lv.start], out=values[lv.start : lv.stop])
            yield lv

    def linear(self, arrays) -> np.ndarray:
        """All rows of the sweep of the arrows' matrices from the identity on
        the first level's rows."""
        values = np.eye(self.n_rows, self.levels[0].start if self.levels else self.n_rows)
        for _ in self.sweep(self.blocks(arrays), values):
            pass
        return values


def block_plan(levels, dims, arrows) -> BlockPlan:
    """The level blocks of a linear sweep over `levels`, tuples of vertices
    whose in-arrows come from earlier levels: v holds dims[v] rows, and a
    level reads the rows from the lowest source of its nonempty arrows on.
    `at` places the entries of the (source, target) `arrows`, row by row."""
    row, bounds = {}, [0]  # level k holds rows bounds[k]:bounds[k + 1]
    for vertices in levels:
        stop = bounds[-1]
        for v in vertices:
            row[v], stop = stop, stop + dims[v]
        bounds.append(stop)
    index = dict(zip(row, range(len(row))))
    ends = np.fromiter(map(index.__getitem__, chain.from_iterable(arrows)), np.intp, 2 * len(arrows)).reshape(-1, 2).T
    first = np.fromiter(row.values(), np.intp, len(row))  # vertices hold consecutive rows
    source, target = first[ends]
    width, height = np.diff(first, append=bounds[-1])[ends]
    count, lows = width * height, np.array(bounds[:-1])
    np.minimum.at(lows, np.searchsorted(bounds, target[count > 0], "right") - 1, source[count > 0])
    base, plan, size = [], [], 0  # entry (r, c) of x -> v is at base[row[v] + r] + row[x] + c
    for k, (lo, start, stop) in enumerate(zip(lows.tolist(), bounds, bounds[1:])):
        base.append(size - lo + (start - lo) * np.arange(stop - start))
        if k:
            plan.append(Level(lo, start, stop, slice(size, size + (stop - start) * (start - lo))))
            size = plan[-1].block.stop
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)  # entry k of its arrow's matrix
    width = np.repeat(width, count)
    at = np.concatenate(base)[np.repeat(target, count) + k // width] + np.repeat(source, count) + k % width
    return BlockPlan(row, source, tuple(plan), at, size, bounds[-1])


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
