"""Small dense-matrix helpers: numerical rank, orthonormal bases, subspace algebra.

Everything here works at desk scale (dimensions in the tens) and represents a
subspace of R^n as an n x k matrix with orthonormal columns; k = 0 is the zero
subspace.
"""

import numpy as np

RANK_TOL = 1e-8
SUBSPACE_TOL = 1e-10
RESIDUAL_TOL = 1e-8  # relative residual counted as zero by `contains` and resolution checks


def _cut(s, tol):
    """How many of the singular values s (descending) exceed tol * sigma_max."""
    return int(np.count_nonzero(s > tol * s[0])) if s.size else 0


def num_rank(a, tol=RANK_TOL):
    """Numerical rank: singular values above tol * sigma_max."""
    return _cut(np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False), tol)


def svd_cut(a):
    """Thin SVD (u, s, vt) of a, cut to the singular values above
    SUBSPACE_TOL * sigma_max: u is an orthonormal basis of the column space
    and (u * s) @ vt reproduces a up to the cut."""
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    r = _cut(s, SUBSPACE_TOL)
    return u[:, :r], s[:r], vt[:r]


def orth(a):
    """Orthonormal basis of the column space of a, as columns."""
    return svd_cut(a)[0]


def null(a):
    """Orthonormal basis of the kernel of a, as columns."""
    _, s, vt = np.linalg.svd(np.asarray(a, dtype=float))
    return vt[_cut(s, SUBSPACE_TOL) :].T


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
