"""Momentum-map values, level-set membership, and positive-gauge balancing.

The per-vertex momentum value collects incoming squares minus outgoing squares
of a triple, the outgoing ones being the incoming squares of its dual; its zero
and identity level sets model the two moduli spaces for the positive-scaling
subgroup relevant to ReLU networks.  `balance` searches a positive gauge moving
a thin triple onto a prescribed level set.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, QmnError, ShapeMismatch
from .rep import DoubleFramedTriple, act, dual

EPS = np.finfo(float).eps
# |mu_i - target| <= ROUNDING_FLOOR * EPS * M_i is rounding, with M_i the sum of
# the magnitudes that make up mu_i
ROUNDING_FLOOR = 16
LEVEL_TOL = 1e-8  # Frobenius distance to the level that still counts as on it
MAX_STEPS = 500  # Newton steps before `balance` gives up


@dataclass
class MomentumValue:
    values: dict  # hidden vertex -> symmetric (d_i, d_i) matrix

    def scalars(self):
        out = {}
        for i, m in self.values.items():
            if m.shape != (1, 1):
                raise ShapeMismatch("scalar view needs thin hidden dimensions")
            out[i] = float(m[0, 0])
        return out


def _in_squares(t: DoubleFramedTriple) -> dict:
    """Per hidden vertex: f f* plus the sum of V V* over in-arrows."""
    into, mats = t.quiver.hidden_quiver().arrows_into, t.hidden_matrices
    return {i: sum((mats[a.id] @ mats[a.id].T for a in into(i)), t.f[i] @ t.f[i].T) for i in t.quiver.hidden}


def momentum(t: DoubleFramedTriple) -> MomentumValue:
    """Per hidden vertex: sum of V V* over in-arrows minus V* V over out-arrows,
    plus f f* minus h* h; the second half is the first half of `dual(t)`.
    Real scalars; adjoints are transposes."""
    into, out = _in_squares(t), _in_squares(dual(t))
    return MomentumValue({i: into[i] - out[i] for i in t.quiver.hidden})


@dataclass
class LevelSetReport:
    membership: dict  # hidden vertex -> bool
    residuals: dict  # hidden vertex -> Frobenius distance to the target level
    target: float

    def all_member(self):
        return all(self.membership.values())


def level_set_membership(t: DoubleFramedTriple, target: float) -> LevelSetReport:
    """Distance of the momentum value to target * identity, per vertex; within
    LEVEL_TOL is membership."""
    mu = momentum(t)
    membership, residuals = {}, {}
    for i, m in mu.values.items():
        d = m.shape[0]
        resid = float(np.linalg.norm(m - float(target) * np.eye(d)))
        residuals[i] = resid
        membership[i] = resid <= LEVEL_TOL
    return LevelSetReport(membership=membership, residuals=residuals, target=float(target))


@dataclass
class BalanceResult:
    gauge: dict  # hidden vertex -> positive scalar
    triple: DoubleFramedTriple
    sweeps: int
    residual: float


def balance(t: DoubleFramedTriple, target: float, tol=LEVEL_TOL) -> BalanceResult:
    """Find positive scalars g_i with the momentum of g . t on the target level.

    Damped Newton (one dense solve and an Armijo line search per step; `sweeps`
    counts steps) on the convex potential of x_i = log g_i^2, Phi(x) = sum_a c_a
    + sum_i (|f_i|^2 e^x_i + |h_i|^2 e^-x_i - target x_i) with c_a = V_a^2
    e^(x_t - x_s), whose gradient is mu(g . t) - target.  With M_i the Hessian
    diagonal, |f_i|^2 e^x_i + |h_i|^2 e^-x_i plus the c_a at i, it stops at the
    rounding floor |mu_i - target| <= ROUNDING_FLOOR * EPS * M_i, or when a
    full step with every residual below sqrt(EPS) * M_i no longer lowers them,
    and accepts when each is within max(tol, that floor).  Raises NoConvergence
    after MAX_STEPS steps or when no step makes progress (an unreachable
    level), and QmnError on a non-finite target or a negative or non-finite tol.
    """
    q = t.quiver
    if any(t.dims[i] != 1 for i in q.hidden):
        raise ShapeMismatch("balancing is implemented for thin hidden dimensions")
    target, tol = float(target), float(tol)
    if not (math.isfinite(target) and math.isfinite(tol) and tol >= 0.0):
        raise QmnError(f"balance needs a finite target and a finite tol >= 0, got {target}, {tol}")
    hidden, plan, mats = q.hidden, t.layout, t.hidden_matrices
    n = len(hidden)
    # thin: every hidden arrow is in one (1, 1) group, whose gauge rows are
    # the rows of its target (x) and source (y) in q.hidden order
    none = np.zeros(0, dtype=np.intp)
    keys, _, _, tgt, src = plan.arrows.groups[0] if plan.arrows.groups else ((), 1, 1, none, none)
    w2 = np.fromiter((mats[k][0, 0] ** 2 for k in keys), float, len(keys))
    # |f_i|^2 and |h_i|^2 as row sums of each shape group's stack, which add
    # in np.sum's order, so each is bit for bit np.sum(f_i ** 2) (a BLAS dot
    # product is not)
    fw, hw = np.zeros(n), np.zeros(n)
    for norms, side, moves in ((fw, t.f, plan.f), (hw, t.h, plan.h)):
        for group_keys, r, c, xs, ys in moves.groups:
            stack = np.array([side[k] for k in group_keys]).reshape(len(group_keys), r * c)
            norms[ys if xs is None else xs] = np.square(stack).sum(axis=1)
    weighted = fw + hw + np.bincount(tgt, w2, n) + np.bincount(src, w2, n) > 0.0

    @np.errstate(all="ignore")
    def point(x):
        # x, Phi, mu - target, c, M and the worst |mu_i - target| / M_i; M = 1
        # where a vertex has no weights, an underflowed M elsewhere gives nan
        s = np.exp(x)
        c = w2 * np.exp(x[tgt] - x[src])
        fs, hs = fw * s, hw / s
        cin, cout = np.bincount(tgt, c, n), np.bincount(src, c, n)
        mass = np.where(weighted, fs + hs + cin + cout, 1.0)
        grad = fs - hs + cin - cout - target
        phi = fs.sum() + hs.sum() + c.sum() - target * x.sum()
        return x, phi, grad, c, mass, float(np.max(np.abs(grad) / mass, initial=0.0))

    def residual():
        return float(np.max(np.abs(cur[2]), initial=0.0))

    cur, steps = point(np.zeros(n)), 0
    while not cur[5] <= ROUNDING_FLOOR * EPS:
        x, phi, grad, c, mass, worst = cur
        if steps == MAX_STEPS:
            raise NoConvergence(steps, residual())
        off = np.bincount(src * n + tgt, c, n * n).reshape(n, n)
        try:
            dx = np.linalg.solve(np.diag(mass) - off - off.T, -grad)
        except np.linalg.LinAlgError:
            raise NoConvergence(steps, residual()) from None
        step, new = 1.0, point(x + dx)
        if worst <= math.sqrt(EPS) and not new[5] < worst:
            break  # quadratic phase at the rounding floor: the step cannot help
        # a full step that lowers the residual is kept without Armijo: near the
        # minimum the decrease of Phi falls below Phi's own rounding
        while not (step == 1.0 and new[5] < worst or new[1] <= phi + 1e-4 * step * (grad @ dx)):
            step *= 0.5
            if step < 1e-12:
                raise NoConvergence(steps, residual())
            new = point(x + step * dx)
        cur, steps = new, steps + 1
    if not np.all(np.abs(cur[2]) <= np.maximum(tol, ROUNDING_FLOOR * EPS * cur[4])):
        raise NoConvergence(steps, residual())
    gauge = {i: np.array([[math.exp(0.5 * xi)]]) for i, xi in zip(hidden, cur[0])}
    return BalanceResult(gauge=gauge, triple=act(gauge, t), sweeps=steps, residual=residual())
