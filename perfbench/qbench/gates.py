"""Correctness gates, one per workload.

Each gate compares what qmn returned with a reference computed here from the
generator's raw arrays in plain numpy, or with an identity the paper proves
(gauge invariance, closed-orbit round trip).  A gate returns a list of
failure messages; an empty list is a pass.  Tolerances are those of the
package's acceptance criteria.
"""

import math

import numpy as np

from . import gen

RTOL_LINEAR = 1e-10  # criterion 07: propagation equals out . coords . in
RTOL_GAUGE = 1e-9  # criterion 02: projection is gauge invariant
RTOL_CLOSED = 1e-9  # closed-orbit representative projects back onto the point
RTOL_FACTOR = 1e-9  # criteria 06 and 13: psi_hat(knowledge map) equals forward
FD_TOL = 1e-5  # criterion 08, smooth activations
FD_STEP = 1e-5
RTOL_RELU = 1e-10  # criterion 10: relu outputs invariant under positive gauges
LEVEL_TOL = 1e-8  # default level-set tolerance of relu.balance


def rel_err(got, want):
    """Max-norm error relative to the reference scale, floored at 1."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    scale = max(float(np.abs(want).max()) if want.size else 0.0, 1.0)
    return float(np.abs(got - want).max()) / scale if want.size else 0.0


def block_err(got, want):
    """Largest blockwise deviation between two moduli points' coordinate
    families, relative to the largest reference entry."""
    if set(got) != set(want):
        return math.inf
    scale = max((float(np.abs(b).max()) for b in want.values() if b.size), default=0.0)
    scale = max(scale, 1e-300)
    worst = 0.0
    for p, b in want.items():
        g = np.asarray(got[p], dtype=float)
        if g.shape != b.shape:
            return math.inf
        if b.size:
            worst = max(worst, float(np.abs(g - b).max()) / scale)
    return worst


def simplicity_agrees(simple, rank_vector, hidden_dims):
    full = all(rank_vector[i] == hidden_dims[i] for i in hidden_dims)
    if bool(simple) != full:
        return [f"is_simple={simple} but rank vector {rank_vector} vs dims {hidden_dims}"]
    return []


def moduli_deep(assembled, rank_vector, simple, in_m, out_m, truth):
    """out . assembled . in equals the product of the layer matrices; is_simple
    agrees with a full rank vector (all hidden dimensions are 1)."""
    fails = []
    err = rel_err(out_m @ assembled @ in_m, truth["linear_map"])
    if not err <= RTOL_LINEAR:
        fails.append(f"out.assembled.in off the layer product by {err:.3e}")
    fails += simplicity_agrees(simple, rank_vector, {i: 1 for i in rank_vector})
    return fails


def moduli_dense(point, rank_vector, simple, hidden_dims, moved_point, round_trip_point):
    """Rank/simplicity agreement, gauge invariance of the projection, and the
    closed-orbit representative projecting back onto the point."""
    fails = simplicity_agrees(simple, rank_vector, hidden_dims)
    err = block_err(moved_point.blocks, point.blocks)
    if not err <= RTOL_GAUGE:
        fails.append(f"project(act(g, t)) differs from project(t) by {err:.3e}")
    err = block_err(round_trip_point.blocks, point.blocks)
    if not err <= RTOL_CLOSED:
        fails.append(f"project(closed_orbit_representative(m)) differs from m by {err:.3e}")
    return fails


def epoch_loss(value):
    if not math.isfinite(value):
        return [f"loss {value} is not finite"]
    return []


def mlp_batch_loss(weights, samples):
    x = np.array([s[0] for s in samples])
    y = np.array([s[1] for s in samples])
    out = gen.layered_forward(weights, gen.MLP_WIDTHS, x, activation="tanh", bias=True)
    return float(np.mean(np.sum((out - y) ** 2, axis=1)))


def mlp_gradient(grads, weights, samples, arrows):
    """The library's batch gradient on `arrows` against central differences of
    the batch loss computed here."""
    fails = []
    for aid in arrows:
        wp, wm = dict(weights), dict(weights)
        wp[aid] += FD_STEP
        wm[aid] -= FD_STEP
        want = (mlp_batch_loss(wp, samples) - mlp_batch_loss(wm, samples)) / (2 * FD_STEP)
        err = abs(grads[aid] - want) / max(abs(want), 1.0)
        if not err <= FD_TOL:
            fails.append(f"gradient of {aid}: {grads[aid]:.6e} vs finite difference {want:.6e}")
    return fails


def mlp_final(losses, weights, grads, samples, arrows, psi, probe_x):
    """End of training: the loss went down, backprop matches finite
    differences, and the network function factors through the knowledge map."""
    fails = []
    if not losses[-1] < losses[0]:
        fails.append(f"final loss {losses[-1]:.6e} is not below the first {losses[0]:.6e}")
    fails += mlp_gradient(grads, weights, samples, arrows)
    want = gen.layered_forward(weights, gen.MLP_WIDTHS, probe_x, activation="tanh", bias=True)[0]
    err = rel_err(psi, want)
    if not err <= RTOL_FACTOR:
        fails.append(f"psi_hat(knowledge_map(x)) off forward(x) by {err:.3e}")
    return fails


def relu_balance(raw, gauge, balanced, inputs):
    """Positive gauge, balanced weights equal to the gauge applied to the raw
    weights, zero momentum at every hidden vertex, unchanged relu outputs.

    `raw` and `balanced` map arrow ids to weights, `gauge` hidden vertices to
    scalars."""
    fails = []
    bad = [v for v, g in gauge.items() if not (math.isfinite(g) and g > 0.0)]
    if bad:
        return [f"gauge not positive at {bad[:3]}"]
    names = gen.layer_names(gen.RELU_WIDTHS)
    at = {v: gauge.get(v, 1.0) for layer in names for v in layer}
    moved = {}
    for aid, s, t in gen.layered_arrows(gen.RELU_WIDTHS):
        moved[aid] = raw[aid] * at[t] / at[s]
    ids = sorted(raw)
    err = rel_err([balanced[a] for a in ids], [moved[a] for a in ids])
    if not err <= RTOL_RELU:
        fails.append(f"balanced weights differ from the gauged raw weights by {err:.3e}")
    mu = {v: 0.0 for layer in names[1:-1] for v in layer}
    for aid, s, t in gen.layered_arrows(gen.RELU_WIDTHS):
        w2 = balanced[aid] ** 2
        if t in mu:
            mu[t] += w2
        if s in mu:
            mu[s] -= w2
    worst = max(abs(m) for m in mu.values())
    if not worst <= LEVEL_TOL:
        fails.append(f"momentum {worst:.3e} off the zero level")
    before = gen.layered_forward(raw, gen.RELU_WIDTHS, inputs, activation="relu")
    after = gen.layered_forward(balanced, gen.RELU_WIDTHS, inputs, activation="relu")
    err = rel_err(after, before)
    if not err <= RTOL_RELU:
        fails.append(f"relu outputs moved by {err:.3e} under the gauge")
    return fails
