"""Small dense-matrix helpers: numerical rank, orthonormal bases, subspace algebra.

Everything here works at desk scale (dimensions in the tens) and represents a
subspace of R^n as an n x k matrix with orthonormal columns; k = 0 is the zero
subspace.
"""

import numpy as np

RANK_TOL = 1e-8
SUBSPACE_TOL = 1e-10
RESIDUAL_TOL = 1e-8  # relative residual counted as zero by `contains` and resolution checks


def _cuts(s, tol):
    """How many of each row of singular values s (descending) exceed tol
    times the row's largest, as a list."""
    return np.add.reduce(s > tol * s[:, :1], axis=1).tolist()


def svd_stacks(mats, compute_uv=True, full_matrices=False):
    """Factor the float matrices `mats` with one stacked np.linalg.svd per
    matrix shape: a list of (positions in mats, that svd's result).  The stack
    is factored matrix by matrix, so each result is the one np.linalg.svd
    gives for that matrix alone."""
    by_shape = {}
    for k, a in enumerate(mats):
        by_shape.setdefault(a.shape, []).append(k)
    out = []
    for shape, ks in by_shape.items():
        stack = np.concatenate([mats[k] for k in ks]).reshape(len(ks), *shape)
        out.append((ks, np.linalg.svd(stack, full_matrices=full_matrices, compute_uv=compute_uv)))
    return out


def svds(mats, full_matrices=False):
    """SVD (u, s, vt) of each of `mats`, thin unless full_matrices."""
    out = [None] * len(mats)
    for ks, (u, s, vt) in svd_stacks(mats, full_matrices=full_matrices):
        for n, k in enumerate(ks):
            out[k] = (u[n], s[n], vt[n])
    return out


def svd_cuts(mats):
    """Thin SVD (u, s, vt) of each of `mats`, cut to the singular values above
    SUBSPACE_TOL * sigma_max: u is an orthonormal basis of the column space
    and (u * s) @ vt reproduces the matrix up to the cut."""
    out = [None] * len(mats)
    for ks, (u, s, vt) in svd_stacks(mats):
        for n, (k, r) in enumerate(zip(ks, _cuts(s, SUBSPACE_TOL))):
            out[k] = (u[n, :, :r], s[n, :r], vt[n, :r])
    return out


def num_ranks(mats, tol=RANK_TOL):
    """Numerical rank of each of `mats`: singular values above tol * sigma_max."""
    out = [0] * len(mats)
    for ks, s in svd_stacks(mats, compute_uv=False):
        for k, r in zip(ks, _cuts(s, tol)):
            out[k] = r
    return out


def num_rank(a, tol=RANK_TOL):
    """Numerical rank of one matrix, as `num_ranks` counts it."""
    return num_ranks([np.asarray(a, dtype=float)], tol)[0]


def orth(a):
    """Orthonormal basis of the column space of a, as columns: the u of its
    `svd_cuts`."""
    return svd_cuts([np.asarray(a, dtype=float)])[0][0]


def null(a):
    """Orthonormal basis of the kernel of a, as columns."""
    _, s, vt = svds([np.asarray(a, dtype=float)], full_matrices=True)[0]
    return vt[_cuts(s[None], SUBSPACE_TOL)[0] :].T


def contains(a, b):
    """True if span(b) is inside span(a), up to RESIDUAL_TOL relative to b's
    largest entry (floored at 1); a orthonormal, b any basis matrix."""
    b = np.asarray(b, dtype=float)
    if b.shape[1] == 0 or b.size == 0:
        return True
    resid = b - a @ (a.T @ b) if a.shape[1] else b
    scale = max(np.abs(b).max(), 1.0)
    return float(np.abs(resid).max()) <= RESIDUAL_TOL * scale


def rel_err(got, want):
    """max-norm relative error with a floor of 1 on the reference scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.abs(want).max()) if want.size else 0.0, 1.0)
    diff = float(np.abs(got - want).max()) if want.size or got.size else 0.0
    return diff / scale
