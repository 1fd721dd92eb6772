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

import numpy as np

from . import linalg
from .errors import CodimensionMismatch, QmnError, ShapeMismatch
from .quiver import Quiver, all_hidden_paths, check_path_cap, framing_data, weakly_connected
from .rep import DoubleFramedTriple, Sides, block_plan, deframe, dual, gauge_dim, memoised, rep_space_dim


@dataclass(frozen=True)
class ModuliPoint:
    """The gauge orbit of `triple`, a frozen representative that gives the
    quiver, dims and framing; spans, ranks and the closed orbit are read from
    its sweeps, which are memoised on it, and enumerate no path.

    `assembled` is the sum of the coordinates h_j V_w f_i over the hidden
    paths w : i ~> j, from one level sweep that reads no path, kept on the
    point as its one assembled matrix.  blocks[w] (shape (w_end, u_start))
    is read-only, first a view of w's column slot in the row h_j C_j, and
    assigning to it adds the edit into that matrix; `rank_vector`,
    `vertex_block`, the closed orbit and the resolution helpers read the
    triple's sweeps, so they do not follow.
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
    def blocks(self) -> Mapping:
        """Each slot path to its block, from one walk of the path table, the
        one reader here of it: at each framed-out j in `hq.vertices` order,
        the fresh row h_j C_j (C_j from `_path_images`), read-only, and for
        each path into j that starts where u > 0, in table order, a view of
        its next u_start columns."""
        t, views = self.triple, {}
        u, images, table = t.framing.u, _path_images(t), all_hidden_paths(t.quiver.hidden_quiver())
        for j in (j for j in table if t.framing.w[j]):
            row, c = t.h[j] @ images[j], 0
            row.flags.writeable = False  # and so is every block sliced from it
            for p in (p for p in table[j] if u[p.start]):
                views[p], c = row[:, c : c + u[p.start]], c + u[p.start]
        return _Blocks(self, views)

    @cached_property
    def _assembled(self) -> np.ndarray:
        """The sink rows of the `_assembly_plan` sweep from the identity on
        its source rows, plus the edits made through `blocks`."""
        plan = _assembly_plan(self.triple.layout)
        return plan.linear([stack for side in self.triple.stacks for stack in side])[plan.levels[-1].start :]

    # --- views ----------------------------------------------------------

    def assembled(self):
        """A fresh operator from stacked framing-in spaces to stacked
        framing-out spaces: a copy of the point's one assembled matrix, the
        sum of the blocks over all paths with the edits of `blocks`."""
        return self._assembled.copy()

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
    i if u_i > 0, then each slot of x extended by a, the order of the
    `all_hidden_paths` table.  Slot w is u[w.start] columns wide and holds
    V_w f_start; on `dual(t)`, H_i^T.
    Refuses quivers past the path cap, but enumerates no path."""
    check_path_cap(t.quiver.hidden_quiver())
    return _sweep(t, _level_plan(t.layout, False), lambda stack: (stack, stack))


def _sweep(t: DoubleFramedTriple, plan, factor):
    """Both sweeps, group by group of `_level_plan`: the group's (n, d, width)
    stack gets its f_i, then each term's products V_a P_x from one np.matmul
    in one scatter; `factor` gives what each vertex keeps and passes on, and
    what the group passes is written into its consecutive slots of the store
    of its passed shape, where later terms read their P_x."""
    arrows, f = t.stacks.arrows, t.stacks.f
    stores = {shape: np.empty((n, *shape)) for shape, n in plan[1].items()}
    out = {}
    for vertices, d, width, framed, terms, shape, slots in plan[2]:
        stack = np.empty((len(vertices), d, width))
        for r, g, rows in framed:
            stack[r, :, : f[g].shape[2]] = f[g][rows]
        for g, rows, source, taken, at in terms:
            stack.put(at, arrows[g][rows] @ stores[source][taken])
        kept, passes = factor(stack)
        out.update(zip(vertices, kept))
        stores[shape][slots] = passes
    return out


@memoised
def _level_plan(lay, cut):
    """(k, stores, groups) of the sweeps over the hidden quiver of a
    `rep.Layout`, built once per layout and cut.  Vertex i passes on k_i =
    min(d_i, u_i + sum of k_x) columns over its arrows a : x -> i if cut,
    else u_i + sum of k_x, into its slot of the store of shape (d_i, k_i);
    `stores` gives each shape's number of slots.  A group is a level's
    vertices of one stacked shape (d, width), with consecutive slots in one
    store: its vertices, d, width, the (stack rows, f group, f rows) of its
    f_i per f group, its terms, and its store shape and slots.  A term is
    the products V_a P_x of one source shape (d_x, k_x > 0): the arrow group
    and rows of the V_a, the store shape and slots of the P_x, and flat
    indices in the group's stack.  Rows and slots are `_index`es."""
    hq, frame, dim = lay.quiver.hidden_quiver(), lay.framing.u, dict(zip(lay.quiver.vertices, lay.dims))
    width, slot, stores, groups = {}, {}, {}, []
    for level in hq.levels:
        shapes = {}
        for i in level:
            cols = frame[i] + sum(width[a.source] for a in hq.arrows_into(i))
            width[i] = min(dim[i], cols) if cut else cols
            shapes.setdefault((dim[i], cols), []).append(i)
        for (d, cols), vertices in shapes.items():
            products, framed, terms = {}, {}, []
            for r, i in enumerate(vertices):
                c = frame[i]
                if c:
                    g, row = lay.moves.f.at[i]
                    framed.setdefault(g, []).append((r, row))
                for a in (a for a in hq.arrows_into(i) if width[a.source]):
                    products.setdefault((dim[a.source], width[a.source]), []).append((a.id, a.source, r, c))
                    c += width[a.source]
            for source, entries in products.items():
                ids, sources, r, c = zip(*entries)
                r, c = np.array(r)[:, None, None], np.array(c)[:, None, None]
                at = r * d * cols + np.arange(d)[:, None] * cols + c + np.arange(source[1])
                places = [lay.moves.arrows.at[a] for a in ids]
                rows = _index([row for _, row in places])
                terms.append((places[0][0], rows, source, _index([slot[x] for x in sources]), at))
            shape = (d, width[vertices[0]])
            first = stores.get(shape, 0)
            stores[shape] = first + len(vertices)
            slot.update(zip(vertices, range(first, stores[shape])))
            framed = tuple((_index(rs), g, _index(rows)) for g, e in framed.items() for rs, rows in [zip(*e)])
            groups.append((tuple(vertices), d, cols, framed, tuple(terms), shape, slice(first, stores[shape])))
    return width, stores, groups


def _index(rows):
    """rows as one index: a slice where they run consecutively, else an index array."""
    first, n = rows[0], len(rows)
    return slice(first, first + n) if list(rows) == list(range(first, first + n)) else np.array(rows, dtype=np.intp)


class _Blocks(Mapping):
    """The coordinate blocks of a point: each slot path, in column order, to
    its read-only block.  Assigning an array of a block's shape adds the
    change into the path's cell of the point's one assembled matrix (the
    `_assembly_plan` rows of ("h", end) and ("f", start); the first
    assignment runs its sweep), then keeps a read-only float copy as the
    block; nothing else changes a block, and an in-place edit (`+=`, an
    entry) raises."""

    def __init__(self, point, views):
        self._point, self._views = point, views

    def __getitem__(self, p):
        return self._views[p]

    def __setitem__(self, p, value):
        block, value = self._views[p], np.asarray(value)
        if value.shape != block.shape:
            raise ShapeMismatch(f"block {p} has shape {block.shape}, got {value.shape}")
        (r, c), plan = block.shape, _assembly_plan(self._point.triple.layout)
        top, left = plan.row["h", p.end] - plan.levels[-1].start, plan.row["f", p.start]
        self._point._assembled[top : top + r, left : left + c] += value - block
        self._views[p] = value.astype(float)
        self._views[p].flags.writeable = False

    def __iter__(self):
        return iter(self._views)

    def __len__(self):
        return len(self._views)


@memoised
def _assembly_plan(lay):
    """The `rep.block_plan` of `assembled` on a `rep.Layout`'s hidden quiver
    plus a source ("f", i) of dim u_i and a sink ("h", i) of dim w_i at each
    hidden vertex i, built once per layout.  Its arrows (hidden, then f_i,
    then h_i) run in the layout's shape-group order, as the stacks do."""
    hq, fr = lay.quiver.hidden_quiver(), lay.framing
    dims = dict(zip(lay.quiver.vertices, lay.dims))
    for i in hq.vertices:
        dims["f", i], dims["h", i] = fr.u[i], fr.w[i]
    ends = {a.id: (a.source, a.target) for a in hq.arrows}
    arrows = [ends[k] for keys, *_ in lay.moves.arrows.groups for k in keys]
    arrows += [(("f", i), i) for keys, *_ in lay.moves.f.groups for i in keys]
    arrows += [(i, ("h", i)) for keys, *_ in lay.moves.h.groups for i in keys]
    ins, outs = tuple(("f", i) for i in hq.vertices), tuple(("h", i) for i in hq.vertices)
    return block_plan((ins, *hq.levels, outs), dims, arrows)


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
        if any(dims[i] != 1 for i in q.hidden):
            return ExistenceReport(False, "single-cycle extension: need thin hidden dimensions", True)
        return ExistenceReport(True, "single-cycle extension with thin dimensions", True)
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


def verify_resolution_point(annihilators: dict, m: ModuliPoint) -> bool:
    """Check candidate resolution data against a moduli point.  The candidate
    at hidden vertex i is the kernel S_i of annihilators[i], a spanning set of
    its annihilator as rows (a 1-D array is one row; anything else that is not
    a finite matrix raises ShapeMismatch) over the stacked in-path space, the
    column slots of `_path_images`.  S_i must have codimension d_i,
    the numerical row rank (`linalg.orth`); S_x must shift into S_i along each
    arrow a : x -> i, which moves the in-path space at x onto a's slot at i,
    so the rows of annihilators[i] on that slot lie in the row space of
    annihilators[x]; and S_i must lie in the kernel of q^(i) = H_i C_i, whose
    row space is that of R_i C_i, R_i = s u^T from the cut thin SVD of H_i^T
    in the sweep `_images` of the dual.  Both inclusions are
    `linalg.contains` on orthonormal bases of the row spaces, the second up to
    linalg.RESIDUAL_TOL relative to R_i C_i's largest entry (floored at 1)."""
    t = m.triple
    images, rows = _path_images(t), {}
    for i in t.quiver.hidden:
        if i not in annihilators:
            raise CodimensionMismatch(f"no subspace given at {i!r}")
        given, ambient = np.atleast_2d(np.asarray(annihilators[i], dtype=float)), images[i].shape[1]
        if given.ndim != 2 or not np.isfinite(given).all():
            raise ShapeMismatch(f"annihilator at {i!r} is not a finite matrix, got shape {given.shape}")
        if given.shape[1] != ambient:
            raise CodimensionMismatch(f"subspace at {i!r} lives in dimension {given.shape[1]}, ambient is {ambient}")
        rows[i] = linalg.orth(given.T)
        if rows[i].shape[1] != t.dims[i]:
            raise CodimensionMismatch(f"subspace at {i!r} has codimension {rows[i].shape[1]}, expected {t.dims[i]}")
    hq, coimages = t.quiver.hidden_quiver(), _images(dual(t))
    for i in hq.vertices:
        off = t.framing.u[i]
        for a in hq.arrows_into(i):
            n = images[a.source].shape[1]
            if not linalg.contains(rows[a.source], rows[i][off : off + n]):
                return False
            off += n
    return all(linalg.contains(rows[i], images[i].T @ coimages[i][3]) for i in hq.vertices)


def resolution_data(t: DoubleFramedTriple) -> dict:
    """The annihilators of the tautological subspaces of a triple: at each
    hidden vertex, a read-only view of the stacked path images C_i of
    `_path_images`, whose slot order depends only on the quiver and the
    framing.  The subspace is the kernel of C_i, of codimension d_i if t is
    semistable."""
    views = {i: c.view() for i, c in _path_images(t).items()}
    for view in views.values():
        view.flags.writeable = False
    return views
