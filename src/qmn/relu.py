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
from .rep import DoubleFramedTriple, act_stacked, dual

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
        if any(m.shape != (1, 1) for m in self.values.values()):
            raise ShapeMismatch("scalar view needs thin hidden dimensions")
        return {i: float(m[0, 0]) for i, m in self.values.items()}


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
    residuals = {i: float(np.linalg.norm(m - float(target) * np.eye(len(m)))) for i, m in momentum(t).values.items()}
    membership = {i: resid <= LEVEL_TOL for i, resid in residuals.items()}
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
    after MAX_STEPS steps, when no step makes progress (an unreachable level)
    and at once when |target| > max(tol, ROUNDING_FLOOR * EPS) at a vertex
    without weights (mu_i = 0 there); QmnError on a non-finite target or a
    negative or non-finite tol.  An overflow, under one np.errstate, makes a
    residual inf, not a warning.
    """
    plan, stacks, n = t.layout, t.stacks, len(t.quiver.hidden)
    if any(d != 1 for d, _ in plan.sizes):
        raise ShapeMismatch("balancing is implemented for thin hidden dimensions")
    target, tol = float(target), float(tol)
    if not (math.isfinite(target) and math.isfinite(tol) and tol >= 0.0):
        raise QmnError(f"balance needs a finite target and a finite tol >= 0, got {target}, {tol}")
    # thin: one (1, 1) group of hidden arrows, gauge rows x (targets) and y (sources) in q.hidden order
    arrows = [(g[3], g[4], stack[:, 0, 0]) for g, stack in zip(plan.moves.arrows.groups, stacks.arrows)]
    tgt, src, weights = arrows[0] if arrows else (np.zeros(0, dtype=np.intp),) * 3
    with np.errstate(all="ignore"):
        try:  # each weight squared as a scalar: an array square differs in the last bit
            w2 = np.fromiter((v**2.0 for v in weights.tolist()), float, len(weights))
        except OverflowError:  # a square past the float range: numpy's scalar one is inf
            w2 = np.fromiter((v**2.0 for v in weights), float, len(weights))
        # |f_i|^2, |h_i|^2: row sums of each nonempty group's stack, bit for bit np.sum(f_i ** 2) (a dot is not)
        fw, hw = np.zeros(n), np.zeros(n)
        for norms, side, moves in ((fw, stacks.f, plan.moves.f), (hw, stacks.h, plan.moves.h)):
            for stack, (_, r, c, xs, ys) in zip(side, moves.groups):
                if r * c:
                    norms[ys if xs is None else xs] = np.square(stack.reshape(len(stack), r * c)).sum(axis=1)
        weighted = fw + hw + np.bincount(tgt, w2, n) + np.bincount(src, w2, n) > 0.0
        if not weighted.all() and abs(target) > max(tol, ROUNDING_FLOOR * EPS):
            raise NoConvergence(0, abs(target))  # mu_i = 0 at a vertex with no weights
        pairs = src * n + tgt

        def point(x):
            # x, mu - target, c, M, the worst |mu_i - target| / M_i, and the f and h terms of
            # Phi; M = 1 where a vertex has no weights, an underflowed M elsewhere gives nan
            s = np.exp(x)
            c = w2 * np.exp(x[tgt] - x[src])
            fs, hs = fw * s, hw / s
            cin, cout = np.bincount(tgt, c, n), np.bincount(src, c, n)
            mass = np.where(weighted, fs + hs + cin + cout, 1.0)
            grad = fs - hs + cin - cout - target
            return x, grad, c, mass, float((np.abs(grad) / mass).max(initial=0.0)), fs, hs

        def phi(p):  # Phi at a point
            return p[5].sum() + p[6].sum() + p[2].sum() - target * p[0].sum()

        def residual():
            return float(np.abs(cur[1]).max(initial=0.0))

        cur, steps = point(np.zeros(n)), 0
        while not cur[4] <= ROUNDING_FLOOR * EPS:
            x, grad, c, mass, worst, _, _ = cur
            if steps == MAX_STEPS:
                raise NoConvergence(steps, residual())
            # Hessian: -c_a at (s, t) and (t, s), M on the loop-free diagonal; float (bincount of no arrows is int)
            off = np.bincount(pairs, c, n * n).reshape(n, n)
            hess = np.negative(off + off.T, dtype=float)
            hess.flat[:: n + 1] = mass
            try:
                dx = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                raise NoConvergence(steps, residual()) from None
            step, new = 1.0, point(x + dx)
            if worst <= math.sqrt(EPS) and not new[4] < worst:
                break  # quadratic phase at the rounding floor: the step cannot help
            # a full step that lowers the residual is kept without Armijo: near
            # the minimum the decrease of Phi falls below Phi's own rounding
            while not (step == 1.0 and new[4] < worst or phi(new) <= phi(cur) + 1e-4 * step * (grad @ dx)):
                step *= 0.5
                if step < 1e-12:
                    raise NoConvergence(steps, residual())
                new = point(x + step * dx)
            cur, steps = new, steps + 1
        if not np.all(np.abs(cur[1]) <= np.maximum(tol, ROUNDING_FLOOR * EPS * cur[3])):
            raise NoConvergence(steps, residual())
    stack = np.array([math.exp(0.5 * xi) for xi in cur[0].tolist()]).reshape(n, 1, 1)
    gauge = dict(zip(t.quiver.hidden, stack))  # views of the stack `act_stacked` moves t by
    return BalanceResult(gauge=gauge, triple=act_stacked({1: stack}, t), sweeps=steps, residual=residual())
