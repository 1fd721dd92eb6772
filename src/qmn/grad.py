"""Loss functions, reverse-mode gradients on network quivers, and a small
full-batch trainer.

`backprop` is the reverse level sweep of the compiled network
(`CompiledNetwork.backward`), validated against central finite differences.
Losses act on one output vector or column-wise on an (outputs, batch) array.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, ShapeMismatch
from .network import NeuralNetwork, columns
from .quiver import Quiver
from .rep import act, join
from .thincat import ThinRep

DIVERGENCE_LIMIT = 1e12  # a training loss above this has diverged

def softmax(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max(axis=0))
    return e / e.sum(axis=0)


class Loss:
    def value(self, z, y):
        raise NotImplementedError

    def grad(self, z, y):
        raise NotImplementedError


class SquaredError(Loss):
    def value(self, z, y):
        d = np.asarray(z, dtype=float) - np.asarray(y, dtype=float)
        return np.sum(d * d, axis=0)

    def grad(self, z, y):
        return 2.0 * (np.asarray(z, dtype=float) - np.asarray(y, dtype=float))


class CrossEntropySoftmax(Loss):
    """Cross entropy evaluated on softmax probabilities; the label is a
    probability vector (one-hot for hard labels)."""

    def value(self, z, y):
        p = softmax(z)
        y = np.asarray(y, dtype=float)
        return -np.sum(y * np.log(np.clip(p, 1e-300, None)), axis=0)

    def grad(self, z, y):
        y = np.asarray(y, dtype=float)
        return softmax(z) * y.sum(axis=0) - y


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
        return ThinRep(self.quiver.opposite, dict(self.weights))


def _labels(c, ys):
    return columns(ys, len(c.outputs), "labels")


def backprop(net: NeuralNetwork, x, y, loss="mse") -> GradientRep:
    """Exact gradient of loss(forward(net, x), y) in every arrow weight: the
    compiled reverse sweep on a batch of one."""
    loss = get_loss(loss)
    c = net.compiled
    blocks = net.weight_blocks()
    values, pre = c.forward(blocks, columns([x], c.n_inputs))
    dw, adj = c.backward(blocks, values, pre, loss.grad(values[c.outputs], _labels(c, [y])))
    return GradientRep(
        net.quiver, dict(zip(c.arrows, dw.tolist())), vertex_adjoints=dict(zip(c.vertices, adj[:, 0].tolist()))
    )


def gradient_transform(g: dict, dw: GradientRep) -> GradientRep:
    """Push a gradient along a hidden gauge scaling: `rep.act` of g on the
    gradient read as a thin representation of the opposite quiver.  g needs
    a block at every hidden vertex (else ShapeMismatch), each finite and
    nonzero (else SingularGauge)."""
    moved = join(act(g, dw.as_opposite_rep().to_triple())).matrices
    return GradientRep(dw.quiver, {a: float(m[0, 0]) for a, m in moved.items()}, dict(dw.vertex_adjoints))


@dataclass
class TrainResult:
    network: NeuralNetwork
    losses: list  # loss at each epoch, final state appended


def batch_loss(net: NeuralNetwork, data, loss="mse") -> float:
    """Mean loss over the samples: one batched forward."""
    loss = get_loss(loss)
    c = net.compiled
    values, _ = c.forward(net.weight_blocks(), columns([x for x, _ in data], c.n_inputs))
    return float(np.mean(loss.value(values[c.outputs], _labels(c, [y for _, y in data]))))


def _snapshot(net: NeuralNetwork, w) -> NeuralNetwork:
    """`net` with weights w; it shares net's quiver, activations and bias, so
    it is given net's compiled structure instead of building its own."""
    thin = ThinRep(net.quiver, dict(zip(net.compiled.arrows, w.tolist())))
    snap = NeuralNetwork(thin, net.activations, net.bias)
    object.__setattr__(snap, "compiled", net.compiled)
    return snap


def train(
    net: NeuralNetwork,
    data,
    loss="mse",
    lr=0.05,
    epochs=100,
    on_epoch=None,
) -> TrainResult:
    """Full-batch gradient descent; deterministic, gradients averaged over the
    batch.  Each epoch is one batched forward, whose loss is the epoch's
    recorded loss, and one batched backward.  Raises DivergenceDetected as soon
    as a recorded loss is not finite or exceeds DIVERGENCE_LIMIT, and
    ShapeMismatch on empty data, negative `epochs` or an `lr` that is not a
    finite number >= 0.

    `on_epoch(epoch, current, value)` runs before each update with a validated
    NeuralNetwork of that epoch's weights (`net` itself at epoch 0); the
    networks are built only when it is given."""
    if not (np.isfinite(lr) and lr >= 0):
        raise ShapeMismatch(f"learning rate must be a finite number >= 0, got {lr}")
    if epochs < 0:
        raise ShapeMismatch(f"epochs must be >= 0, got {epochs}")
    if len(data) == 0:
        raise ShapeMismatch("training data is empty")
    loss = get_loss(loss)
    c = net.compiled
    x = columns([x for x, _ in data], c.n_inputs)
    y = _labels(c, [y for _, y in data])
    w = c.weight_vector(net.weights.weights)
    history = []
    for epoch in range(epochs + 1):
        blocks = c.plan.blocks([w])
        values, pre = c.forward(blocks, x)
        z = values[c.outputs]
        value = float(np.mean(loss.value(z, y)))
        history.append(value)
        if not np.isfinite(value) or value > DIVERGENCE_LIMIT:
            raise DivergenceDetected(epoch, value)
        if epoch == epochs:
            break
        if on_epoch is not None:
            on_epoch(epoch, _snapshot(net, w) if epoch else net, value)
        dw, _ = c.backward(blocks, values, pre, loss.grad(z, y))
        w = w - lr * (dw / len(data))
    return TrainResult(network=_snapshot(net, w) if epochs else net, losses=history)
