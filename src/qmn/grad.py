"""Loss functions, reverse-mode gradients on network quivers, and a small
full-batch trainer.

`backprop` is the ground truth: a reverse topological sweep implementing the
chain rule, validated against central finite differences.  `backprop_factored`
recomputes the same gradient from the knowledge representation and its
identity-activation evaluation, exercising the factorization through the
moduli space.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, ShapeMismatch
from .network import ACTIVATIONS, NeuralNetwork, ForwardTrace, forward, knowledge_map
from .quiver import Arrow, Quiver
from .thincat import ThinRep


def softmax(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max())
    return e / e.sum()


class Loss:
    name = ""

    def value(self, z, y):
        raise NotImplementedError

    def grad(self, z, y):
        raise NotImplementedError


class SquaredError(Loss):
    name = "mse"

    def value(self, z, y):
        d = np.asarray(z, dtype=float) - np.asarray(y, dtype=float)
        return float(d @ d)

    def grad(self, z, y):
        return 2.0 * (np.asarray(z, dtype=float) - np.asarray(y, dtype=float))


class CrossEntropySoftmax(Loss):
    """Cross entropy evaluated on softmax probabilities; the label is a
    probability vector (one-hot for hard labels)."""

    name = "cross-entropy"

    def value(self, z, y):
        p = softmax(z)
        y = np.asarray(y, dtype=float)
        return float(-np.sum(y * np.log(np.clip(p, 1e-300, None))))

    def grad(self, z, y):
        y = np.asarray(y, dtype=float)
        return softmax(z) * y.sum() - y


LOSSES = {"mse": SquaredError(), "cross-entropy": CrossEntropySoftmax()}


def get_loss(name) -> Loss:
    if isinstance(name, Loss):
        return name
    if name not in LOSSES:
        raise ShapeMismatch(f"unknown loss {name!r}")
    return LOSSES[name]


@dataclass
class GradientRep:
    """Per-arrow loss gradient.  Under hidden gauge scalings it transforms as a
    thin representation of the opposite quiver."""

    quiver: Quiver
    weights: dict
    vertex_adjoints: dict

    def as_opposite_rep(self) -> ThinRep:
        q = self.quiver
        rev = Quiver(
            q.vertices,
            [Arrow(a.id, a.target, a.source) for a in q.arrows],
            network=False,
        )
        return ThinRep(rev, dict(self.weights))


def _adjoint_sweep(net: NeuralNetwork, trace: ForwardTrace, dz: np.ndarray) -> GradientRep:
    """Shared reverse pass given vertex values and output adjoints."""
    q = net.quiver
    hidden = set(q.hidden)
    da = {v: 0.0 for v in q.vertices}
    dpre = {}
    for v, g in zip(q.sinks, dz):
        da[v] = float(g)
    for v in reversed(q.topological):
        if v in set(q.sources):
            continue
        if v in hidden:
            act = ACTIVATIONS[net.activations[v]]
            dpre[v] = da[v] * act.dfn(trace.pre[v])
        else:
            dpre[v] = da[v]
        for a in q.arrows_into(v):
            da[a.source] += net.weights.weights[a.id] * dpre[v]
    dw = {a.id: dpre[a.target] * trace.values[a.source] for a in q.arrows}
    return GradientRep(q, dw, vertex_adjoints=da)


def backprop(net: NeuralNetwork, x, y, loss="mse") -> GradientRep:
    """Exact gradient of loss(forward(net, x), y) in every arrow weight."""
    loss = get_loss(loss)
    z, trace = forward(net, x)
    return _adjoint_sweep(net, trace, loss.grad(z, y))


def backprop_factored(net: NeuralNetwork, x, y, loss="mse") -> GradientRep:
    """Gradient recomputed through the knowledge representation.

    The identity-activation evaluation of the knowledge representation on the
    all-ones input reproduces every pre-activation of the original network, so
    the reverse sweep can run on values reconstructed from that evaluation
    alone.  Raises SingularPreActivation where the knowledge map is undefined.
    """
    loss = get_loss(loss)
    q = net.quiver
    k = knowledge_map(net, x)
    rep = k.to_representation()

    # full trace of the identity evaluation, not just sink values
    vals = {}
    for v in q.topological:
        if v in set(q.sources):
            vals[v] = 1.0
        else:
            vals[v] = sum(rep.matrices[a.id][0, 0] * vals[a.source] for a in q.arrows_into(v))
    hidden = set(q.hidden)
    values, pre = {}, {}
    x = np.asarray(x, dtype=float).ravel()
    xval = dict(zip(net.input_vertices, x))
    for v in q.topological:
        if v in net.bias:
            values[v] = 1.0
        elif v in xval:
            values[v] = xval[v]
        elif v in hidden:
            pre[v] = vals[v]
            values[v] = ACTIVATIONS[net.activations[v]].fn(vals[v])
        else:
            pre[v] = vals[v]
            values[v] = vals[v]
    z = np.array([values[v] for v in q.sinks])
    return _adjoint_sweep(net, ForwardTrace(values=values, pre=pre), loss.grad(z, y))


def gradient_transform(g: dict, dw: GradientRep) -> GradientRep:
    """Push a gradient along a hidden gauge scaling: each arrow picks up
    g_source / g_target, with g = 1 off the hidden set (the thin gauge action
    read on the opposite quiver)."""
    q = dw.quiver
    hidden = set(q.hidden)

    def at(v):
        return float(np.asarray(g[v]).reshape(())) if v in hidden and v in g else 1.0

    out = {a.id: dw.weights[a.id] * at(a.source) / at(a.target) for a in q.arrows}
    return GradientRep(q, out, vertex_adjoints=dict(dw.vertex_adjoints))


@dataclass
class TrainResult:
    network: NeuralNetwork
    losses: list  # loss at each epoch, final state appended


def batch_loss(net: NeuralNetwork, data, loss="mse") -> float:
    loss = get_loss(loss)
    return float(np.mean([loss.value(forward(net, x)[0], y) for x, y in data]))


def train(
    net: NeuralNetwork,
    data,
    loss="mse",
    lr=0.05,
    epochs=100,
    divergence_limit=1e12,
    on_epoch=None,
) -> TrainResult:
    """Full-batch gradient descent; deterministic, gradients averaged over the
    batch in input order.  Raises DivergenceDetected as soon as a recorded loss
    is not finite or exceeds `divergence_limit`."""
    if lr < 0:
        raise ShapeMismatch("learning rate must be nonnegative")
    if len(data) == 0:
        raise ShapeMismatch("training data is empty")
    loss = get_loss(loss)
    weights = dict(net.weights.weights)
    history = []
    current = net
    for epoch in range(epochs + 1):
        value = batch_loss(current, data, loss)
        history.append(value)
        if not np.isfinite(value) or value > divergence_limit:
            raise DivergenceDetected(epoch, value)
        if epoch == epochs:
            break
        if on_epoch is not None:
            on_epoch(epoch, current, value)
        grads = [backprop(current, x, y, loss) for x, y in data]
        mean = {
            aid: float(np.mean([gr.weights[aid] for gr in grads])) for aid in weights
        }
        weights = {aid: weights[aid] - lr * mean[aid] for aid in weights}
        current = NeuralNetwork(
            ThinRep(net.quiver, weights), dict(net.activations), net.bias
        )
    return TrainResult(network=current, losses=history)
