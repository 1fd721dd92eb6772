"""Shared helpers for the test suite: oracle utilities and small fixture quivers."""

import math

import numpy as np
import pytest

from qmn.errors import NoConvergence, ShapeMismatch
from qmn.grad import GradientRep, get_loss
from qmn.network import ACTIVATIONS, ForwardTrace, NeuralNetwork
from qmn.quiver import Quiver
from qmn.relu import BalanceResult
from qmn.rep import DoubleFramedTriple, act
from qmn.thincat import ThinRep

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def forward_reference(net: NeuralNetwork, x) -> tuple:
    """Propagate x through the network in topological order.

    Returns (outputs at sinks in declaration order, trace of all vertex values).
    The per-sample scalar sweep the compiled engine replaced; the independent
    oracle for `network.forward`.
    """
    q = net.quiver
    x = np.asarray(x, dtype=float).ravel()
    inputs = net.input_vertices
    if x.shape[0] != len(inputs):
        raise ShapeMismatch(f"expected {len(inputs)} inputs, got {x.shape[0]}")
    xval = dict(zip(inputs, x))
    values, pre = {}, {}
    hidden = set(q.hidden)
    for v in q.topological:
        if v in net.bias:
            values[v] = 1.0
        elif v in xval:
            values[v] = xval[v]
        else:
            z = sum(net.weights.weights[a.id] * values[a.source] for a in q.arrows_into(v))
            pre[v] = z
            values[v] = ACTIVATIONS[net.activations[v]].fn(z) if v in hidden else z
    out = np.array([values[v] for v in q.sinks])
    return out, ForwardTrace(values=values, pre=pre)


def backprop_reference(net: NeuralNetwork, x, y, loss="mse") -> GradientRep:
    """Reverse topological sweep over `forward_reference`: the per-sample
    scalar chain rule the compiled engine replaced; the oracle for
    `grad.backprop`."""
    loss = get_loss(loss)
    z, trace = forward_reference(net, x)
    dz = loss.grad(z, y)
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


def fd_gradient(net: NeuralNetwork, x, y, loss="mse", h=1e-5):
    """Central finite differences of the loss in every arrow weight; the
    independent oracle for backprop."""
    loss = get_loss(loss)
    base = dict(net.weights.weights)
    grads = {}
    for aid in base:
        wp, wm = dict(base), dict(base)
        wp[aid] += h
        wm[aid] -= h
        np_ = NeuralNetwork(ThinRep(net.quiver, wp), dict(net.activations), net.bias)
        nm = NeuralNetwork(ThinRep(net.quiver, wm), dict(net.activations), net.bias)
        grads[aid] = (
            loss.value(forward_reference(np_, x)[0], y) - loss.value(forward_reference(nm, x)[0], y)
        ) / (2 * h)
    return grads


def brute_force_paths(hq, start, end, max_len=None):
    """Path enumeration by breadth-first extension; independent of the DFS in
    the library."""
    if max_len is None:
        max_len = len(hq.vertices)
    results = []
    frontier = [(start, ())]
    for _ in range(max_len + 1):
        nxt = []
        for v, arrows in frontier:
            if v == end:
                results.append(arrows)
            for a in hq.arrows:
                if a.source == v:
                    nxt.append((a.target, arrows + (a.id,)))
        frontier = nxt
    return sorted(results)


def balance_reference(
    t: DoubleFramedTriple, target: float, tol=1e-8, max_sweeps=10**4
) -> BalanceResult:
    """Find positive scalars g_i with the momentum of g . t on the target level.

    Cyclic coordinate descent: with the other factors frozen, the vertex value
    is A s - B / s in s = g_i^2, monotone in s, so each update is exact.
    Raises NoConvergence when the residual stalls above tol.  The slow
    reference that `relu.balance` (Newton on the same potential) replaced.
    """
    q = t.quiver
    if any(t.dims[i] != 1 for i in q.hidden):
        raise ShapeMismatch("balancing is implemented for thin hidden dimensions")
    hq = q.hidden_quiver()
    target = float(target)
    s = {i: 1.0 for i in q.hidden}  # squared gauge factors

    def vertex_masses(i):
        a = float(np.sum(t.f[i] ** 2))
        for ar in hq.arrows_into(i):
            a += t.hidden_matrices[ar.id][0, 0] ** 2 / s[ar.source]
        b = float(np.sum(t.h[i] ** 2))
        for ar in hq.arrows_out_of(i):
            b += t.hidden_matrices[ar.id][0, 0] ** 2 * s[ar.target]
        return a, b

    def residual():
        worst = 0.0
        for i in q.hidden:
            a, b = vertex_masses(i)
            worst = max(worst, abs(a * s[i] - b / s[i] - target))
        return worst

    sweeps = 0
    res = residual()
    prev = None
    for sweeps in range(1, max_sweeps + 1):
        for i in q.hidden:
            a, b = vertex_masses(i)
            if a > 0.0:
                s[i] = (target + math.sqrt(target**2 + 4.0 * a * b)) / (2.0 * a)
                if s[i] <= 0.0:
                    # target <= 0 with b == 0: the level is unreachable here
                    s[i] = 1.0
            elif b > 0.0 and target < 0.0:
                s[i] = b / (-target)
            # a == 0, b == 0, or unreachable sign: leave s[i]; residual decides
        res = residual()
        if res <= tol or res == prev:
            break
        prev = res
    if res > tol:
        raise NoConvergence(sweeps, res)
    gauge = {i: np.array([[math.sqrt(s[i])]]) for i in q.hidden}
    return BalanceResult(gauge=gauge, triple=act(gauge, t), sweeps=sweeps, residual=res)


def layered_quiver(widths, network=False):
    """Fully connected layered quiver; the first and last layers are the
    sources and sinks.  Vertex `L{k}_{j}` is unit j of layer k."""
    layers = [[f"L{k}_{j}" for j in range(w)] for k, w in enumerate(widths)]
    arrows = [
        (f"{s}>{t}", s, t) for lo, hi in zip(layers, layers[1:]) for s in lo for t in hi
    ]
    return Quiver([v for layer in layers for v in layer], arrows, network=network)


@pytest.fixture
def diamond_quiver():
    """One source, three hidden vertices in a diamond, one sink; 6 arrows."""
    return Quiver(
        ["s", "p", "q1", "q2", "r", "t"],
        [
            ("sp", "s", "p"),
            ("pq1", "p", "q1"),
            ("pq2", "p", "q2"),
            ("q1r", "q1", "r"),
            ("q2r", "q2", "r"),
            ("rt", "r", "t"),
        ],
    )


@pytest.fixture
def ten_arrow_quiver():
    """Two sources, three hidden, two sinks; exactly 10 arrows."""
    return Quiver(
        ["s1", "s2", "h1", "h2", "h3", "t1", "t2"],
        [
            ("i1", "s1", "h1"),
            ("i2", "s2", "h1"),
            ("i3", "s1", "h2"),
            ("e12", "h1", "h2"),
            ("e13", "h1", "h3"),
            ("e23", "h2", "h3"),
            ("o1", "h2", "t1"),
            ("o2", "h3", "t1"),
            ("o3", "h3", "t2"),
            ("o4", "h1", "t2"),
        ],
    )
