"""Moduli coordinates for double-framed representations and the tests built on them.

The quotient map sends a triple (V, f, h) to the family of composite maps
h_j V_w f_i over hidden paths w : i ~> j.  That family is a complete invariant
of closed gauge orbits.  Per-vertex blocks q^(i) collect all coordinates of
paths through i; their ranks bound the hidden dimension vector, with equality
exactly on simple points.

Every sweep here runs one way, from the framing into the hidden quiver.  What
the coframing sees (path co-images, subrepresentations killed by h) is the
same sweep run on `rep.dual(t)`, the transpose triple on the opposite quiver.
"""

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import CodimensionMismatch, QmnError, ShapeMismatch
from .quiver import Quiver, all_hidden_paths, check_path_cap, framing_data, weakly_connected
from .rep import DoubleFramedTriple, Sides, deframe, dual, gauge_dim, memoised, rep_space_dim


@dataclass(frozen=True)
class ModuliPoint:
    """The gauge orbit of `triple`, a frozen representative that gives the
    quiver, dims and framing; spans, ranks and the closed orbit are read from
    its sweeps, which are memoised on it, and enumerate no path.

    The coordinates h_j V_w f_i of the hidden paths w ending at a framed-out
    vertex j are the column slots of one row matrix h_j C_j (C_j the stacked
    path images at j), computed on first read and kept on the point.
    `assembled` sums those rows; blocks[w] (shape (w_end, u_start)) is a view
    of w's slot, and assigning to it writes into the row, so `assembled`
    follows the edit.  `rank_vector`, `vertex_block`, the closed orbit and the
    resolution helpers do not: they read the uncut path sweeps of the triple
    and of its dual, whose slots come in one order: the lazy path first, then
    one slot per arrow in `arrows_into` order, recursively.  The slot paths
    and columns of that order are `_slot_layout`'s, built once per layout
    from the one path table of `all_hidden_paths`; no other reader here
    enumerates a path.
    """

    triple: DoubleFramedTriple

    @property
    def quiver(self) -> Quiver:
        return self.triple.quiver

    @property
    def dims(self) -> dict:
        return self.triple.dims

    @property
    def framing(self):
        return self.triple.framing

    @cached_property
    def _rows(self) -> dict:
        """h_j C_j at each framed-out vertex j, a fresh array sharing no
        storage with the triple's sweeps."""
        images, h = _path_images(self.triple), self.triple.h
        return {j: h[j] @ images[j] for j in _slot_layout(self.triple.layout)}

    @cached_property
    def blocks(self) -> Mapping:
        """Each slot path, in column order, to a write-through view of its
        columns in `_rows`."""
        rows, layout = self._rows, _slot_layout(self.triple.layout)
        return _Blocks({p: (rows[j], cols) for j, slots in layout.items() for p, cols in slots.columns.items()})

    # --- views ----------------------------------------------------------

    def assembled(self):
        """Single operator from stacked framing-in spaces to stacked framing-out
        spaces; each (start, end) pair is written once, with the sum of the
        blocks of its parallel paths, and pairs without a path stay zero.  The
        row at j is summed into its start columns by one np.add.reduceat."""
        u, w = self.framing.u, self.framing.w
        layout, rows = _slot_layout(self.triple.layout), self._rows
        m = np.zeros((sum(w.values()), sum(u.values())))
        r = 0
        for j, slots in layout.items():
            if slots.columns:
                m[r : r + w[j], slots.targets] = np.add.reduceat(rows[j][:, slots.order], slots.starts, axis=1)
            r += w[j]
        return m

    def vertex_block(self, i):
        """q^(i) = H_i C_i: all coordinates of paths through i, columns by the
        in-path slots of `_path_images(t)`, rows by those of the dual's, whose
        path images are the transposed co-images H_i^T = [h_i^T | V_a^T ...]."""
        return _path_images(dual(self.triple))[i].T @ _path_images(self.triple)[i]

    def rank_vector(self, tol=linalg.RANK_TOL):
        """Numerical rank of each q^(i), which factors through V_i as path
        co-images (the dual's path images) times path images: the number of
        cosines of principal angles between the two orthonormal spans above
        tol times the largest.  Computed once per triple and tol; each call
        returns a fresh dict."""
        if not 0.0 <= tol < 1.0:
            raise QmnError(f"rank tolerance must lie in [0, 1), got {tol}")
        return dict(_rank_vector(self.triple, tol))


def project(t: DoubleFramedTriple) -> ModuliPoint:
    """Quotient map: the point of t's orbit; its readers compute on first use."""
    return ModuliPoint(t)


# --- stability and simplicity -------------------------------------------


@memoised
def _images(t: DoubleFramedTriple):
    """Cut thin SVDs (u, s, vt) and u * s of the stacked path images V_w f at
    each hidden vertex, from one sweep over [f_i | V_a P_x ...], arrows
    a : x -> i: P_x = u * s keeps their Gram matrix at the full thin width
    k_x of `_level_plan`, singular values below the SUBSPACE_TOL cut zeroed,
    and vt's columns split by slot (f_i, then k_x per arrow).  On `dual(t)`:
    the path co-images."""
    return _sweep(t, _level_plan(t.layout, True), _cut_factors)


def _cut_factors(stack):
    """The cut factors of each matrix of an (n, d, width) stack (no SVD when
    it is empty), and the stack of their u * s at full thin width."""
    n, d, width = stack.shape
    u, s, vt = linalg.svd(stack) if min(d, width) else (np.zeros((n, d, 0)), np.zeros((n, 0)), np.zeros((n, 0, width)))
    us, kept = u * s[:, None], []
    for k, r in enumerate(linalg.cuts(s, linalg.SUBSPACE_TOL)):
        if r < s.shape[1]:
            us[k, :, r:] = 0.0
        kept.append((u[k, :, :r], s[k, :r], vt[k, :r], us[k, :, :r]))
    return kept, us


@memoised
def _rank_vector(t: DoubleFramedTriple, tol):
    """The ranks `ModuliPoint.rank_vector` hands out copies of."""
    images, coimages = _images(t), _images(dual(t))
    hidden = t.quiver.hidden
    return dict(zip(hidden, linalg.num_ranks([coimages[i][0].T @ images[i][0] for i in hidden], tol)))


@memoised
def _path_images(t: DoubleFramedTriple):
    """Uncut stacked path images C_i = [f_i | V_a C_x ...] at each hidden
    vertex, arrows a : x -> i in `arrows_into` order: the lazy path's slot at
    i if u_i > 0, then each slot of x extended by a (`_slot_layout`).  Slot w
    is u[w.start] columns wide and holds V_w f_start; on `dual(t)`, H_i^T.
    Refuses quivers past the path cap, but enumerates no path."""
    check_path_cap(t.quiver.hidden_quiver())
    return _sweep(t, _level_plan(t.layout, False), lambda stack: (stack, stack))


def _sweep(t: DoubleFramedTriple, plan, factor):
    """Both sweeps, group by group of `_level_plan`: the group's (n, d, width)
    stack is its f_i alone, sliced from t's stacks, or gets its f_i, then
    each term's products V_a P_x from one np.matmul in one scatter; `factor`
    gives what each vertex keeps and passes on."""
    arrows, f = t.stacks.arrows, t.stacks.f
    passed, out = {}, {}
    for vertices, d, width, framed, terms, alone in plan[1]:
        if alone:
            stack = f[alone[0]][alone[1]]
        else:
            stack = np.empty((len(vertices), d, width))
            for r, g, row in framed:
                stack[r, :, : f[g].shape[2]] = f[g][row]
            for g, rows, sources, at in terms:
                stack.put(at, arrows[g][rows] @ _stacked([passed[x] for x in sources]))
        kept, passes = factor(stack)
        out.update(zip(vertices, kept))
        passed.update(zip(vertices, passes))
    return out


def _stacked(ms):
    """ms as one (n, r, c) stack in ms[0]'s memory order, since a transposed
    view (`dual(t)`'s arrays) multiplies by a transposed BLAS call."""
    if len(ms) == 1:
        return ms[0][None]
    if ms[0].strides[-1] == ms[0].itemsize:
        return np.array(ms)
    return np.array([m.T for m in ms]).swapaxes(1, 2)


@memoised
def _level_plan(lay, cut):
    """(k, groups) of the sweeps over the hidden quiver of a `rep.Layout`,
    built once per layout and cut.  Vertex i passes on k_i = min(d_i, u_i +
    sum of k_x) columns over its arrows a : x -> i if cut, else u_i + sum of
    k_x.  A group is a level's vertices of one stacked shape, the (row, f
    group, f row) of those with u_i > 0, its terms and, if it has none, the
    f group and rows of the f_i that are its stacked matrices.  A term is
    products V_a P_x of one source shape (d_x, k_x > 0), one each if two or
    fewer (gathering them costs more than it saves): the arrow group and rows
    of the V_a, the sources, and flat indices in the group's stack."""
    hq, frame, dim = lay.quiver.hidden_quiver(), lay.framing.u, dict(zip(lay.quiver.vertices, lay.dims))
    width, groups = {}, []
    for level in hq.levels:
        shapes = {}
        for i in level:
            cols = frame[i] + sum(width[a.source] for a in hq.arrows_into(i))
            width[i] = min(dim[i], cols) if cut else cols
            shapes.setdefault((dim[i], cols), []).append(i)
        for (d, cols), vertices in shapes.items():
            products, terms = {}, []
            for r, i in enumerate(vertices):
                c = frame[i]
                for a in (a for a in hq.arrows_into(i) if width[a.source]):
                    products.setdefault((dim[a.source], width[a.source]), []).append((a.id, a.source, r, c))
                    c += width[a.source]
            for (_, k), entries in products.items():
                for ids, sources, r, c in [zip(*entries)] if len(entries) > 2 else [zip(e) for e in entries]:
                    r, c = np.array(r)[:, None, None], np.array(c)[:, None, None]
                    at = r * d * cols + np.arange(d)[:, None] * cols + c + np.arange(k)
                    terms.append((*_rows_of([lay.moves.arrows.at[a] for a in ids]), sources, at))
            framed = tuple((r, *lay.moves.f.at[i]) for r, i in enumerate(vertices) if frame[i])
            alone = None if terms else _rows_of([lay.moves.f.at[i] for i in vertices])
            groups.append((tuple(vertices), d, cols, framed, tuple(terms), alone))
    return width, groups


def _rows_of(places):
    """The group of places (group, row), all in one stack, and their rows: a
    slice where they run consecutively, else an index array."""
    (g, first), rows = places[0], [row for _, row in places]
    run = rows == list(range(first, first + len(rows)))
    return g, slice(first, first + len(rows)) if run else np.array(rows, dtype=np.intp)


class _Slots(NamedTuple):
    """The slots of `_path_images` at one hidden vertex."""

    columns: dict  # each slot's path to the index of its columns, (slice(None), slice(lo, hi)), in column order
    order: np.ndarray  # slot columns grouped by start column, each group in path order
    starts: np.ndarray  # where each group begins in `order`
    targets: np.ndarray  # the start column of each group in `assembled`


class _Blocks(Mapping):
    """The coordinate blocks of a point: each slot path, in column order, to a
    view of its columns in its row.  Assigning an array of a block's shape
    writes it into the row; nothing else changes a block."""

    def __init__(self, slots):
        self._slots = slots  # path -> (row, columns)

    def __getitem__(self, p):
        row, cols = self._slots[p]
        return row[cols]

    def __setitem__(self, p, value):
        block, value = self[p], np.asarray(value)
        if value.shape != block.shape:
            raise ShapeMismatch(f"block {p} has shape {block.shape}, got {value.shape}")
        block[...] = value

    def __iter__(self):
        return iter(self._slots)

    def __len__(self):
        return len(self._slots)


@memoised
def _slot_layout(lay) -> dict:
    """`_Slots` of the framed-out vertices (w > 0) of the hidden quiver of a
    `rep.Layout`, built once per layout.  Its slot paths are those of
    `all_hidden_paths` that start where u > 0, in table order; the paths of
    one start column sum in arrow-id order."""
    hq, width, w = lay.quiver.hidden_quiver(), lay.framing.u, lay.framing.w
    offset, c = {}, 0
    for i in hq.vertices:
        offset[i], c = c, c + width[i]
    every, table, layout = slice(None), all_hidden_paths(hq), {}
    for i in hq.vertices:
        if not w[i]:
            continue
        paths = [p for p in table[i] if width[p.start]]
        n = len(paths)
        widths = np.array([width[p.start] for p in paths], dtype=int)
        bounds = np.concatenate(([0], np.cumsum(widths)))
        first = np.array([offset[p.start] for p in paths], dtype=int)
        position = np.empty(n, dtype=int)  # of each slot's path in arrow-id order
        position[sorted(range(n), key=lambda k: paths[k].arrows)] = np.arange(n)
        column = np.repeat(first - bounds[:-1], widths) + np.arange(bounds[-1])
        order = np.lexsort((np.repeat(position, widths), column))
        grouped = column[order]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        spans = zip(bounds[:-1].tolist(), bounds[1:].tolist())
        columns = {p: (every, slice(lo, hi)) for p, (lo, hi) in zip(paths, spans)}
        layout[i] = _Slots(columns, order, starts, grouped[starts])
    return layout


def is_semistable(t: DoubleFramedTriple) -> bool:
    """True when the framing maps generate the whole hidden representation."""
    images = _images(t)
    return all(images[i][1].size == t.dims[i] for i in t.quiver.hidden)


def is_simple(t: DoubleFramedTriple) -> bool:
    """Generated by the framing and with no subrepresentation killed by the
    coframing (the dual is generated by its framing); equivalent to the rank
    vector of the projection being full."""
    return is_semistable(t) and is_semistable(dual(t))


# --- existence criterion ---------------------------------------------------


@dataclass(frozen=True)
class ExistenceReport:
    exists: bool
    reason: str
    single_cycle: bool  # one-point extension is a single undirected cycle


def _one_point_cycle(q: Quiver, dims: dict) -> bool:
    """Underlying graph of the one-point extension is a single cycle: connected,
    all degrees two, as many arrows as vertices."""
    dq = deframe(q, dims)
    degree = Counter(v for a in dq.arrows for v in (a.source, a.target))
    return (
        len(dq.arrows) == len(dq.vertices)
        and all(degree[v] == 2 for v in dq.vertices)
        and weakly_connected(dq.vertices, dq.arrows)
    )


def simple_rep_exists(q: Quiver, dims: dict) -> ExistenceReport:
    """Numerical criterion (Le Bruyn-Procesi) for a simple point to exist for
    the given dimension vector.

    Outside the single-cycle case the three conditions are: some hidden vertex
    carries framing mass, and u_i / w_i dominate the in/out Euler defects
    d_i - sum of neighbour dims; the out-defect is the in-defect on the
    opposite quiver.
    """
    fr = framing_data(q, dims)
    if not q.hidden:
        return ExistenceReport(False, "no hidden vertices", False)
    hq = q.hidden_quiver()
    if _one_point_cycle(q, dims):
        thin = all(dims[i] == 1 for i in q.hidden)
        reason = "single-cycle extension: need thin hidden dimensions" if not thin else "single-cycle extension with thin dimensions"
        return ExistenceReport(thin, reason, True)
    if not any(dims[i] * (fr.u[i] + fr.w[i]) != 0 for i in q.hidden):
        return ExistenceReport(False, "no framed hidden vertex with positive dimension", False)
    sides = (("u", fr.u, "in", hq), ("w", fr.w, "out", q.opposite.hidden_quiver()))
    for name, frame, side, oriented in sides:
        for i in q.hidden:
            need = dims[i] - sum(dims[a.source] for a in oriented.arrows_into(i))
            if frame[i] < need:
                return ExistenceReport(False, f"{name}[{i}] = {frame[i]} < {side}-defect {need}", False)
    return ExistenceReport(True, "all numerical conditions hold", False)


@dataclass(frozen=True)
class ModuliDimension:
    value: int
    expected_only: bool  # no simple point exists; value is the formula only


def moduli_dimension(q: Quiver, dims: dict) -> ModuliDimension:
    """dim of the representation space minus dim of the hidden gauge group."""
    value = rep_space_dim(q, dims) - gauge_dim(q, dims)
    report = simple_rep_exists(q, dims)
    return ModuliDimension(value=value, expected_only=not report.exists)


# --- closed orbits ----------------------------------------------------------


def closed_orbit_representative(m: ModuliPoint, tol=linalg.RANK_TOL) -> DoubleFramedTriple:
    """Canonical triple with a closed orbit projecting to m.

    The image of each q^(i) in the stacked out-path space carries an induced
    representation by path shifts; the representative takes orthonormal
    coordinates on it, padded with zeros up to d_i, read from the sweeps
    `_images` of m.triple (forward) and of its dual (reverse).  With
    R_i = s u^T (reverse) and S_i = u s (forward), q^(i) = Y_i R_i S_i Z_i^T
    for Y_i, Z_i with orthonormal columns, and the rows of Y_i on the
    out-paths through a : i -> j are Y_j times the slot-a rows of the reverse
    vt_i^T.  With U_i the leading m.rank_vector(tol)[i] left singular vectors
    of the core R_i S_i (which has q^(i)'s singular values), the coordinates
    are Y_i U_i, so h_i = (h-slot rows) U_i, V_a = U_j^T (slot-a rows) U_i
    (the first r_j of the plan's k_j) and f_i = U_i^T R_i f_i, each written
    into zero stacks of t's layout.  The cores of one shape are factored as
    one stack (`linalg.svd_stacks`).
    """
    t = m.triple
    hq, lay, w = t.quiver.hidden_quiver(), t.layout, t.framing.w
    images, coimages = _images(t), _images(dual(t))
    slot = _level_plan(dual(t).layout, True)[0]
    ranks = m.rank_vector(tol)
    basis, cores = {}, [coimages[i][3].T @ images[i][3] for i in hq.vertices]
    for ks, (left, _, _) in linalg.svd_stacks(cores):
        basis.update((hq.vertices[k], left[n, :, : ranks[hq.vertices[k]]]) for n, k in enumerate(ks))
    stacks = Sides(*(tuple(np.zeros((len(keys), r, c)) for keys, r, c, _, _ in moves.groups) for moves in lay.moves))

    def put(side, key, a):  # a, zero-padded, as key's matrix in side ("arrows", "f" or "h")
        g, row = getattr(lay.moves, side).at[key]
        getattr(stacks, side)[g][row, : a.shape[0], : a.shape[1]] = a

    for i in hq.vertices:
        slots = coimages[i][2].T
        put("h", i, slots[: w[i]] @ basis[i])
        off = w[i]
        for a in hq.arrows_out_of(i):
            put("arrows", a.id, basis[a.target].T @ slots[off : off + coimages[a.target][1].size] @ basis[i])
            off += slot[a.target]
        put("f", i, basis[i].T @ coimages[i][3].T @ t.f[i])
    return DoubleFramedTriple._built(t.quiver, t.dims, stacks, lay)


# --- resolution points ------------------------------------------------------


def verify_resolution_point(subspaces: dict, m: ModuliPoint) -> bool:
    """Check a candidate tuple of subspaces against a moduli point: each
    subspace of the stacked in-path space at i (the column slots of
    `_path_images`) must have codimension d_i, be carried into its neighbour
    by every arrow shift, which moves the space at a's source onto a's slot
    at its target (`linalg.contains`), and lie in the kernel of q^(i), up to
    linalg.RESIDUAL_TOL relative to q^(i)'s largest entry (floored at 1)."""
    q = m.quiver
    images = _path_images(m.triple)
    bases = {}
    for i in q.hidden:
        ambient = images[i].shape[1]
        if i not in subspaces:
            raise CodimensionMismatch(f"no subspace given at {i!r}")
        v = np.asarray(subspaces[i], dtype=float)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if v.shape[0] != ambient:
            raise CodimensionMismatch(
                f"subspace at {i!r} lives in dimension {v.shape[0]}, ambient is {ambient}"
            )
        b = linalg.orth(v)
        if ambient - b.shape[1] != m.dims[i]:
            raise CodimensionMismatch(
                f"subspace at {i!r} has codimension {ambient - b.shape[1]}, expected {m.dims[i]}"
            )
        bases[i] = b
    hq = q.hidden_quiver()
    for i in q.hidden:
        off = m.framing.u[i]
        for a in hq.arrows_into(i):
            n = images[a.source].shape[1]
            moved = np.zeros((images[i].shape[1], bases[a.source].shape[1]))
            moved[off : off + n] = bases[a.source]
            if not linalg.contains(bases[i], moved):
                return False
            off += n
    for i in q.hidden:
        qi = m.vertex_block(i)
        if qi.size == 0 or bases[i].shape[1] == 0:
            continue
        resid = qi @ bases[i]
        scale = max(float(np.abs(qi).max()), 1.0)
        if float(np.abs(resid).max()) > linalg.RESIDUAL_TOL * scale:
            return False
    return True


def resolution_data(t: DoubleFramedTriple) -> dict:
    """Tautological subspaces for a triple: the kernel of the stacked path
    images C_i of `_path_images`, whose slot order depends only on the quiver
    and the framing; codimension d_i if t is semistable."""
    images = _path_images(t)
    return {i: linalg.null(images[i]) for i in t.quiver.hidden}
