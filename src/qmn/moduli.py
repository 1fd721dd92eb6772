"""Moduli coordinates for double-framed representations and the tests built on them.

The quotient map sends a triple (V, f, h) to the family of composite maps
h_j V_w f_i over hidden paths w : i ~> j.  That family is a complete invariant
of closed gauge orbits.  Per-vertex blocks q^(i) collect all coordinates of
paths through i; their ranks bound the hidden dimension vector, with equality
exactly on simple points.
"""

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from . import linalg
from .errors import CodimensionMismatch, QmnError
from .quiver import Quiver, all_hidden_paths, framing_data, weakly_connected
from .rep import DoubleFramedTriple, deframe, rep_space_dim, gauge_dim


@dataclass(frozen=True)
class ModuliPoint:
    """The gauge orbit of `triple`, a frozen representative that gives the
    quiver, dims and framing; spans, ranks and the closed orbit are read from
    its sweeps, which are memoised on it, and enumerate no path.

    `paths` is the quiver's cached, read-only mapping of every hidden path for
    every ordered vertex pair, checked against the path cap on each read.
    blocks[w] (shape (w_end, u_start)) is the literal coordinate h_j V_w f_i of
    each hidden path between framed vertices, built on first read and kept on
    the point; `assembled`, `vertex_block` and `qmn moduli coords` read it.
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

    @property
    def paths(self) -> Mapping:
        return all_hidden_paths(self.quiver.hidden_quiver())

    @cached_property
    def blocks(self) -> dict:
        h, w = self.triple.h, self.framing.w
        return {p: h[p.end] @ image for p, image in _path_images(self.triple) if w[p.end]}

    # --- layout helpers -------------------------------------------------

    def framed_in(self):
        return [i for i in self.quiver.hidden if self.framing.u[i] > 0]

    def framed_out(self):
        return [j for j in self.quiver.hidden if self.framing.w[j] > 0]

    def in_paths(self, i):
        """Paths j ~> i from framed-in vertices, column order of q^(i)."""
        return [p for j in self.framed_in() for p in self.paths[(j, i)]]

    def out_paths(self, i):
        """Paths i ~> k into framed-out vertices, row order of q^(i)."""
        return [p for k in self.framed_out() for p in self.paths[(i, k)]]

    # --- views ----------------------------------------------------------

    def assembled(self):
        """Single operator from stacked framing-in spaces to stacked framing-out
        spaces; each (start, end) pair is written once, with the sum of the
        blocks of its parallel paths, and pairs without a path stay zero."""
        u, w = self.framing.u, self.framing.w
        paths, blocks = self.paths, self.blocks
        cols = self.framed_in()
        m = np.zeros((sum(w.values()), sum(u.values())))
        r = 0
        for j in self.framed_out():
            c = 0
            for i in cols:
                bucket = paths[(i, j)]
                if bucket:
                    m[r : r + w[j], c : c + u[i]] = sum(blocks[p] for p in bucket)
                c += u[i]
            r += w[j]
        return m

    def vertex_block(self, i):
        """q^(i): all coordinates of paths through i, rows by out-paths, columns
        by in-paths.  Blocks are looked up by (start, arrows), which determine
        a path."""
        u, w = self.framing.u, self.framing.w
        index = {(p.start, p.arrows): b for p, b in self.blocks.items()}
        ins = self.in_paths(i)
        outs = self.out_paths(i)
        ncols = sum(u[p.start] for p in ins)
        nrows = sum(w[p.end] for p in outs)
        m = np.zeros((nrows, ncols))
        r = 0
        for po in outs:
            c = 0
            for pi in ins:
                m[r : r + w[po.end], c : c + u[pi.start]] = index[(pi.start, pi.arrows + po.arrows)]
                c += u[pi.start]
            r += w[po.end]
        return m

    def rank_vector(self, tol=linalg.RANK_TOL):
        """Numerical rank of each q^(i), which factors through V_i as path
        co-images times path images: the number of cosines of principal angles
        between the two orthonormal spans above tol times the largest."""
        if not 0.0 <= tol < 1.0:
            raise QmnError(f"rank tolerance must lie in [0, 1), got {tol}")
        images, coimages = _images(self.triple), _coimages(self.triple)
        return {i: linalg.num_rank(coimages[i][0].T @ images[i][0], tol) for i in self.quiver.hidden}


def project(t: DoubleFramedTriple) -> ModuliPoint:
    """Quotient map: the point of t's orbit; its readers compute on first use."""
    return ModuliPoint(t)


def _path_images(t: DoubleFramedTriple):
    """(w, V_w f_i) for every hidden path w : i ~> j with u_i > 0, walked by
    end in topological order, so each image is one arrow past the image of its
    prefix; the lazy path at i gives f_i.  The one builder of path images."""
    hq = t.quiver.hidden_quiver()
    paths = all_hidden_paths(hq)
    mats = t.hidden_matrices
    for i in t.quiver.hidden:
        if t.framing.u[i] == 0:
            continue
        images = {(): t.f[i]}
        for j in hq.topological:
            for p in paths[(i, j)]:
                if p.arrows:
                    images[p.arrows] = mats[p.arrows[-1]] @ images[p.arrows[:-1]]
                yield p, images[p.arrows]


# --- stability and simplicity -------------------------------------------


def _memoised(sweep):
    """Cache sweep(t) in t._memo on first use; the triple is frozen, so no
    field it was computed from can be reassigned."""

    @wraps(sweep)
    def cached(t: DoubleFramedTriple):
        if sweep.__name__ not in t._memo:
            t._memo[sweep.__name__] = sweep(t)
        return t._memo[sweep.__name__]

    return cached


@_memoised
def _images(t: DoubleFramedTriple):
    """Cut thin SVDs (u, s, vt) of the stacked path images V_w f at each hidden
    vertex, from one topological sweep over [f_i | V_a u_x s_x ...], arrows
    a : x -> i.  Passing u * s on keeps the Gram matrix of the stacked path
    images: u is an orthonormal basis of their span, u * s has their singular
    values, and the columns of vt split by slot, f_i first, then one slot per
    arrow."""
    hq = t.quiver.hidden_quiver()
    mats = t.hidden_matrices
    images, passed = {}, {}
    for i in hq.topological:
        images[i] = linalg.svd_cut(
            np.hstack([t.f[i]] + [mats[a.id] @ passed[a.source] for a in hq.arrows_into(i)])
        )
        passed[i] = _scaled(images[i])
    return images


@_memoised
def _coimages(t: DoubleFramedTriple):
    """The reverse half of `_images`: cut thin SVDs of the stacked path
    co-images (h V_w)^T, from one reverse topological sweep over
    [h_i^T | V_a^T u_y s_y ...], arrows a : i -> y in `arrows_out_of` order;
    the columns of vt split as h_i first, then one slot per arrow."""
    hq = t.quiver.hidden_quiver()
    mats = t.hidden_matrices
    coimages, passed = {}, {}
    for i in reversed(hq.topological):
        coimages[i] = linalg.svd_cut(
            np.hstack([t.h[i].T] + [mats[a.id].T @ passed[a.target] for a in hq.arrows_out_of(i)])
        )
        passed[i] = _scaled(coimages[i])
    return coimages


def _scaled(factors):
    u, s, _ = factors
    return u * s


def is_semistable(t: DoubleFramedTriple) -> bool:
    """True when the framing maps generate the whole hidden representation."""
    images = _images(t)
    return all(images[i][1].size == t.dims[i] for i in t.quiver.hidden)


def is_simple(t: DoubleFramedTriple) -> bool:
    """Generated by the framing and with no subrepresentation killed by the
    coframing; equivalent to the rank vector of the projection being full."""
    return all(
        side[i][1].size == t.dims[i] for side in (_images(t), _coimages(t)) for i in t.quiver.hidden
    )


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
    d_i - sum of neighbour dims.
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
    for i in q.hidden:
        need = dims[i] - sum(dims[a.source] for a in hq.arrows_into(i))
        if fr.u[i] < need:
            return ExistenceReport(False, f"u[{i}] = {fr.u[i]} < in-defect {need}", False)
    for i in q.hidden:
        need = dims[i] - sum(dims[a.target] for a in hq.arrows_out_of(i))
        if fr.w[i] < need:
            return ExistenceReport(False, f"w[{i}] = {fr.w[i]} < out-defect {need}", False)
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
    coordinates on it, padded with zeros up to d_i, read from m.triple's
    sweeps `_images` and `_coimages`.  With R_i = s u^T (reverse) and
    S_i = u s (forward), q^(i) = Y_i R_i S_i Z_i^T for Y_i, Z_i with
    orthonormal columns, and the rows of Y_i on the out-paths through
    a : i -> j are Y_j times the slot-a rows of the reverse vt_i^T.  With U_i
    the leading m.rank_vector(tol)[i] left singular vectors of the core
    R_i S_i (which has q^(i)'s singular values), the coordinates are Y_i U_i,
    so h_i = (h-slot rows) U_i, V_a = U_j^T (slot-a rows) U_i and
    f_i = U_i^T R_i f_i.
    """
    t = m.triple
    hq = t.quiver.hidden_quiver()
    dims, u, w = t.dims, t.framing.u, t.framing.w
    images, coimages = _images(t), _coimages(t)
    ranks = m.rank_vector(tol)
    coimage_factor, basis = {}, {}
    for i in hq.vertices:
        coimage_factor[i] = _scaled(coimages[i]).T
        core = coimage_factor[i] @ _scaled(images[i])
        basis[i] = np.linalg.svd(core, full_matrices=False)[0][:, : ranks[i]]

    def padded(a, rows, cols):
        out = np.zeros((rows, cols))
        out[: a.shape[0], : a.shape[1]] = a
        return out

    hidden_mats, f, h = {}, {}, {}
    for i in hq.vertices:
        slots = coimages[i][2].T
        h[i] = padded(slots[: w[i]] @ basis[i], w[i], dims[i])
        off = w[i]
        for a in hq.arrows_out_of(i):
            n = coimages[a.target][1].size
            red = basis[a.target].T @ slots[off : off + n] @ basis[i]
            hidden_mats[a.id] = padded(red, dims[a.target], dims[i])
            off += n
        f[i] = padded(basis[i].T @ coimage_factor[i] @ t.f[i], dims[i], u[i])
    return DoubleFramedTriple(t.quiver, dict(dims), hidden_mats, f, h, t.framing)


# --- resolution points ------------------------------------------------------


def in_shift_matrix(m: ModuliPoint, arrow):
    """Shift map on stacked in-path spaces: the slot of path w at the arrow's
    source moves to the slot of (arrow appended to w) at its target."""
    u = m.framing.u
    i, j = arrow.source, arrow.target
    ins_i, ins_j = m.in_paths(i), m.in_paths(j)
    off_i, off = {}, 0
    for p in ins_i:
        off_i[p.start, p.arrows] = off
        off += u[p.start]
    off_j, off = {}, 0
    for p in ins_j:
        off_j[p.start, p.arrows] = off
        off += u[p.start]
    mat = np.zeros((sum(u[p.start] for p in ins_j), sum(u[p.start] for p in ins_i)))
    for p in ins_i:
        ro, co = off_j[p.start, p.arrows + (arrow.id,)], off_i[p.start, p.arrows]
        mat[ro : ro + u[p.start], co : co + u[p.start]] = np.eye(u[p.start])
    return mat


def verify_resolution_point(subspaces: dict, m: ModuliPoint) -> bool:
    """Check a candidate tuple of subspaces against a moduli point: each
    subspace of the stacked in-path space at i must have codimension d_i, be
    carried into its neighbour by every arrow shift (`linalg.contains`), and
    lie in the kernel of q^(i), up to linalg.RESIDUAL_TOL relative to q^(i)'s
    largest entry (floored at 1)."""
    q = m.quiver
    u = m.framing.u
    bases = {}
    for i in q.hidden:
        ambient = sum(u[p.start] for p in m.in_paths(i))
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
    for a in q.hidden_quiver().arrows:
        moved = in_shift_matrix(m, a) @ bases[a.source]
        if not linalg.contains(bases[a.target], moved):
            return False
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
    """Tautological subspaces for a triple: the kernel of the collected map
    from the stacked in-paths into V_i, in `ModuliPoint.in_paths` order, which
    depends only on the quiver and the framing; codimension d_i if t is
    semistable."""
    m = ModuliPoint(t)
    images = dict(_path_images(t))
    out = {}
    for i in t.quiver.hidden:
        blocks = [images[p] for p in m.in_paths(i)]
        collected = np.hstack(blocks) if blocks else np.zeros((t.dims[i], 0))
        out[i] = linalg.null(collected)
    return out
