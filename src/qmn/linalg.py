"""Small dense-matrix helpers: numerical rank, orthonormal bases, subspace algebra.

Everything here works at desk scale (dimensions in the tens) and represents a
subspace of R^n as an n x k matrix with orthonormal columns; k = 0 is the zero
subspace.
"""

import numpy as np

RANK_TOL = 1e-8
SUBSPACE_TOL = 1e-10
_TINY = np.finfo(float).tiny  # norm floor: zero rows and columns stay zero


def num_rank(a, tol=RANK_TOL):
    """Numerical rank: singular values above tol * sigma_max."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def equilibrate(a):
    """Rows, then columns, of a scaled to unit norm; zero ones stay zero.

    Diagonal scaling keeps the rank, but it removes the spread that row and
    column scales of 10^k put into the singular values of a product of blocks,
    which a relative rank tolerance would otherwise read as lost rank."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return a
    a = a / np.maximum(np.sqrt(np.einsum("ij,ij->i", a, a)), _TINY)[:, None]
    return a / np.maximum(np.sqrt(np.einsum("ij,ij->j", a, a)), _TINY)


def orth(a, tol=SUBSPACE_TOL):
    """Orthonormal basis of the column space of a, as columns."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros((a.shape[0], 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((a.shape[0], 0))
    r = int(np.sum(s > tol * s[0]))
    return u[:, :r]


def null(a, tol=SUBSPACE_TOL):
    """Orthonormal basis of the kernel of a, as columns."""
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    if a.size == 0:
        return np.eye(n)
    u, s, vt = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(n)
    r = int(np.sum(s > tol * s[0]))
    return vt[r:].T


def contains(a, b, tol=1e-8):
    """True if span(b) is inside span(a); a orthonormal, b any basis matrix."""
    b = np.asarray(b, dtype=float)
    if b.shape[1] == 0 or b.size == 0:
        return True
    resid = b - a @ (a.T @ b) if a.shape[1] else b
    scale = max(np.abs(b).max(), 1.0)
    return float(np.abs(resid).max()) <= tol * scale


def rel_err(got, want):
    """max-norm relative error with a floor of 1 on the reference scale."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.abs(want).max()) if want.size else 0.0, 1.0)
    diff = float(np.abs(got - want).max()) if want.size or got.size else 0.0
    return diff / scale
