"""Moduli coordinates for double-framed representations and the tests built on them.

The quotient map sends a triple (V, f, h) to the family of composite maps
h_j V_w f_i over hidden paths w : i ~> j.  That family is a complete invariant
of closed gauge orbits.  Per-vertex blocks q^(i) collect all coordinates of
paths through i; their ranks bound the hidden dimension vector, with equality
exactly on simple points.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CodimensionMismatch, ShapeMismatch
from .quiver import DEFAULT_PATH_CAP, Path, Quiver, all_hidden_paths
from .rep import DoubleFramedTriple, deframe, rep_space_dim, gauge_dim


@dataclass
class ModuliPoint:
    """Coordinates of a gauge orbit: one matrix block per hidden path between
    framed vertices.

    blocks[w] has shape (w_end, u_start); paths between unframed endpoints are
    not stored.  `paths` holds every hidden path for every ordered vertex pair
    (needed to assemble the per-vertex blocks q^(i)).
    """

    quiver: Quiver
    dims: dict
    framing: object
    paths: dict
    blocks: dict

    # --- layout helpers -------------------------------------------------

    def framed_in(self):
        return [i for i in self.quiver.hidden if self.framing.u[i] > 0]

    def framed_out(self):
        return [j for j in self.quiver.hidden if self.framing.w[j] > 0]

    def in_paths(self, i):
        """Paths j ~> i from framed-in vertices, column order of q^(i)."""
        return [p for j in self.quiver.hidden if self.framing.u[j] > 0 for p in self.paths[(j, i)]]

    def out_paths(self, i):
        """Paths i ~> k into framed-out vertices, row order of q^(i)."""
        return [p for k in self.quiver.hidden if self.framing.w[k] > 0 for p in self.paths[(i, k)]]

    # --- views ----------------------------------------------------------

    def assembled(self):
        """Single operator from stacked framing-in spaces to stacked framing-out
        spaces; parallel paths between the same pair add up, pairs without a
        path contribute structural zeros."""
        u, w = self.framing.u, self.framing.w
        cols = self.framed_in()
        rows = self.framed_out()
        col_off, c = {}, 0
        for i in cols:
            col_off[i] = c
            c += u[i]
        row_off, r = {}, 0
        for j in rows:
            row_off[j] = r
            r += w[j]
        m = np.zeros((r, c))
        for p, b in self.blocks.items():
            ro, co = row_off[p.end], col_off[p.start]
            m[ro : ro + w[p.end], co : co + u[p.start]] += b
        return m

    def _block_index(self):
        """Blocks keyed by (start, arrows), which determine a path."""
        return {(p.start, p.arrows): b for p, b in self.blocks.items()}

    def vertex_block(self, i):
        """q^(i): all coordinates of paths through i, rows by out-paths, columns
        by in-paths."""
        return self._vertex_block(i, self._block_index())

    def _vertex_block(self, i, index):
        u, w = self.framing.u, self.framing.w
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
        """Numerical rank of each q^(i), taken after equilibrating its rows
        and columns so that blocks of very different scale do not hide rank."""
        index = self._block_index()
        return {
            i: linalg.num_rank(linalg.equilibrate(self._vertex_block(i, index)), tol)
            for i in self.quiver.hidden
        }


def path_matrix(t: DoubleFramedTriple, p: Path):
    m = np.eye(t.dims[p.start])
    for aid in p.arrows:
        m = t.hidden_matrices[aid] @ m
    return m


def project(t: DoubleFramedTriple, cap: int = DEFAULT_PATH_CAP) -> ModuliPoint:
    """Quotient map: blocks h_j V_w f_i for every hidden path w between framed
    vertices; the lazy path at i contributes h_i f_i.  Each image V_w f_i is one
    arrow past the image of its prefix, which ends earlier in topological order."""
    q = t.quiver
    fr = t.framing
    hq = q.hidden_quiver()
    paths = all_hidden_paths(hq, cap)
    mats = t.hidden_matrices
    blocks = {}
    for i in q.hidden:
        if fr.u[i] == 0:
            continue
        images = {(): t.f[i]}
        for j in hq.topological:
            for p in paths[(i, j)]:
                if p.arrows:
                    images[p.arrows] = mats[p.arrows[-1]] @ images[p.arrows[:-1]]
                if fr.w[j]:
                    blocks[p] = t.h[j] @ images[p.arrows]
    return ModuliPoint(q, dict(t.dims), fr, paths, blocks)


# --- stability and simplicity -------------------------------------------


def _path_spans(t: DoubleFramedTriple):
    """Orthonormal bases, per hidden vertex, of the span of the path images
    V_w f over paths ending there and of the path co-images (h V_w)^T over
    paths starting there; one topological sweep each way."""
    hq = t.quiver.hidden_quiver()
    mats = t.hidden_matrices
    images, coimages = {}, {}
    for i in hq.topological:
        images[i] = linalg.orth(
            np.hstack([t.f[i]] + [mats[a.id] @ images[a.source] for a in hq.arrows_into(i)])
        )
    for i in reversed(hq.topological):
        coimages[i] = linalg.orth(
            np.hstack([t.h[i].T] + [mats[a.id].T @ coimages[a.target] for a in hq.arrows_out_of(i)])
        )
    return images, coimages


def is_semistable(t: DoubleFramedTriple) -> bool:
    """True when the framing maps generate the whole hidden representation."""
    images, _ = _path_spans(t)
    return all(images[i].shape[1] == t.dims[i] for i in t.quiver.hidden)


def is_simple(t: DoubleFramedTriple) -> bool:
    """Generated by the framing and with no subrepresentation killed by the
    coframing; equivalent to the rank vector of the projection being full."""
    spans = _path_spans(t)
    return all(s[i].shape[1] == t.dims[i] for s in spans for i in t.quiver.hidden)


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
    adj = {v: [] for v in dq.vertices}
    for a in dq.arrows:
        adj[a.source].append(a.target)
        adj[a.target].append(a.source)
    if len(dq.arrows) != len(dq.vertices) or any(len(n) != 2 for n in adj.values()):
        return False
    seen, stack = {dq.infinity}, [dq.infinity]
    while stack:
        for wv in adj[stack.pop()]:
            if wv not in seen:
                seen.add(wv)
                stack.append(wv)
    return len(seen) == len(dq.vertices)


def simple_rep_exists(q: Quiver, dims: dict) -> ExistenceReport:
    """Numerical criterion (Le Bruyn-Procesi) for a simple point to exist for
    the given dimension vector.

    Outside the single-cycle case the three conditions are: some hidden vertex
    carries framing mass, and u_i / w_i dominate the in/out Euler defects
    d_i - sum of neighbour dims.
    """
    from .quiver import framing_data

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

    The image of each q^(i) (inside the stacked out-path space) carries an
    induced representation by path shifts; we take orthonormal coordinates on
    it, pad with a zero complement up to d_i, and read f from the lazy in-slot
    and h from the lazy out-slot.
    """
    q = m.quiver
    u, w = m.framing.u, m.framing.w
    dims = m.dims
    basis, outs, out_off, qblock = {}, {}, {}, {}
    index = m._block_index()
    for i in q.hidden:
        outs[i] = m.out_paths(i)
        off, offs = 0, {}
        for p in outs[i]:
            offs[p.arrows] = off
            off += w[p.end]
        out_off[i] = offs
        qi = qblock[i] = m._vertex_block(i, index)
        b = linalg.orth(qi, tol)
        if b.shape[1] > dims[i]:
            raise ShapeMismatch(
                f"rank {b.shape[1]} at vertex {i!r} exceeds hidden dimension {dims[i]}"
            )
        basis[i] = b

    hidden_mats = {}
    for a in q.hidden_quiver().arrows:
        i, j = a.source, a.target
        nrows = sum(w[p.end] for p in outs[j])
        ncols = sum(w[p.end] for p in outs[i])
        shift = np.zeros((nrows, ncols))
        for p in outs[j]:
            ro, co = out_off[j][p.arrows], out_off[i][(a.id,) + p.arrows]
            shift[ro : ro + w[p.end], co : co + w[p.end]] = np.eye(w[p.end])
        red = basis[j].T @ shift @ basis[i]
        full = np.zeros((dims[j], dims[i]))
        full[: red.shape[0], : red.shape[1]] = red
        hidden_mats[a.id] = full

    f, h = {}, {}
    for i in q.hidden:
        fi = np.zeros((dims[i], u[i]))
        if u[i] > 0:
            ins = m.in_paths(i)
            lazy = next(k for k, p in enumerate(ins) if not p.arrows)
            co = sum(u[p.start] for p in ins[:lazy])
            red = basis[i].T @ qblock[i][:, co : co + u[i]]
            fi[: red.shape[0], :] = red
        f[i] = fi
        hi = np.zeros((w[i], dims[i]))
        if w[i] > 0:
            ro = out_off[i][()]
            hi[:, : basis[i].shape[1]] = basis[i][ro : ro + w[i], :]
        h[i] = hi
    return DoubleFramedTriple(q, dict(dims), hidden_mats, f, h, m.framing)


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


def verify_resolution_point(subspaces: dict, m: ModuliPoint, tol=1e-8) -> bool:
    """Check a candidate tuple of subspaces against a moduli point: each
    subspace of the stacked in-path space at i must have codimension d_i, be
    carried into its neighbour by every arrow shift, and lie in the kernel of
    q^(i)."""
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
        b = linalg.orth(v) if v.size else np.zeros((ambient, 0))
        if ambient - b.shape[1] != m.dims[i]:
            raise CodimensionMismatch(
                f"subspace at {i!r} has codimension {ambient - b.shape[1]}, expected {m.dims[i]}"
            )
        bases[i] = b
    for a in q.hidden_quiver().arrows:
        moved = in_shift_matrix(m, a) @ bases[a.source]
        if not linalg.contains(bases[a.target], moved, tol):
            return False
    for i in q.hidden:
        qi = m.vertex_block(i)
        if qi.size == 0 or bases[i].shape[1] == 0:
            continue
        resid = qi @ bases[i]
        scale = max(float(np.abs(qi).max()), 1.0)
        if float(np.abs(resid).max()) > tol * scale:
            return False
    return True


def resolution_data(t: DoubleFramedTriple, m: ModuliPoint = None) -> dict:
    """Tautological subspaces for a triple: the kernel of the collected map
    from stacked in-paths into V_i.  For semistable triples these have
    codimension d_i and verify against project(t)."""
    if m is None:
        m = project(t)
    out = {}
    for i in t.quiver.hidden:
        blocks = [path_matrix(t, p) @ t.f[p.start] for p in m.in_paths(i)]
        collected = np.hstack(blocks) if blocks else np.zeros((t.dims[i], 0))
        out[i] = linalg.null(collected)
    return out
