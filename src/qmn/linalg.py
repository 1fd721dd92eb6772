"""Small dense-matrix helpers: numerical rank, orthonormal bases, subspace algebra.

Everything here works at desk scale (dimensions in the tens).  A subspace of
R^n is the column span of an n x k matrix (a row space, that of the
transpose), held by orthonormal columns where `orth` returns it; k = 0 is the
zero subspace.
"""

import numpy as np

RANK_TOL = 1e-8
SUBSPACE_TOL = 1e-10
RESIDUAL_TOL = 1e-8  # relative residual counted as zero by `contains` and resolution checks


def cuts(s, tol):
    """How many of each row of singular values s (descending) exceed tol
    times the row's largest, as a list."""
    return np.add.reduce(s > tol * s[:, :1], axis=1).tolist()


def svd(stack, compute_uv=True):
    """The thin np.linalg.svd of a stack of float matrices, matrix by matrix, so
    each result is the one np.linalg.svd gives that matrix alone: the one SVD
    call here (`svd_stacks` and the moduli sweeps hand it their stacks)."""
    return np.linalg.svd(stack, full_matrices=False, compute_uv=compute_uv)


def svd_stacks(mats, compute_uv=True):
    """Factor the float matrices `mats` with one `svd` per matrix shape: a
    list of (positions in mats, that svd's result)."""
    by_shape = {}
    for k, a in enumerate(mats):
        by_shape.setdefault(a.shape, []).append(k)
    out = []
    for shape, ks in by_shape.items():
        stack = np.concatenate([mats[k] for k in ks]).reshape(len(ks), *shape)
        out.append((ks, svd(stack, compute_uv)))
    return out


def num_ranks(mats, tol=RANK_TOL):
    """Numerical rank of each of `mats`: singular values above tol * sigma_max."""
    out = [0] * len(mats)
    for ks, s in svd_stacks(mats, compute_uv=False):
        for k, r in zip(ks, cuts(s, tol)):
            out[k] = r
    return out


def num_rank(a, tol=RANK_TOL):
    """Numerical rank of one matrix, as `num_ranks` counts it."""
    return num_ranks([np.asarray(a, dtype=float)], tol)[0]


def orth(a):
    """Orthonormal basis of the column space of a, as columns: its left
    singular vectors above SUBSPACE_TOL * sigma_max."""
    u, s, _ = svd(np.asarray(a, dtype=float)[None])
    return u[0, :, : cuts(s, SUBSPACE_TOL)[0]]


def contains(a, b):
    """True if span(b) is inside span(a), up to RESIDUAL_TOL relative to b's
    largest entry (floored at 1); a orthonormal, b any basis matrix."""
    b = np.asarray(b, dtype=float)
    if b.shape[1] == 0 or b.size == 0:
        return True
    resid = b - a @ (a.T @ b) if a.shape[1] else b
    scale = max(np.abs(b).max(), 1.0)
    return float(np.abs(resid).max()) <= RESIDUAL_TOL * scale

