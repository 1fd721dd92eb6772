"""Neural-network semantics on quivers: forward evaluation, the linear operator
attached to a gauge orbit, and the knowledge map.

A network is a thin representation on a quiver without parallel arrows plus an
activation tag per hidden vertex.  Sources split into input and bias vertices;
bias vertices always emit 1.  Sinks sum their incoming terms with no
activation applied.

Activated networks are evaluated by one engine, `CompiledNetwork`: the quiver,
activations and bias set are turned once into index arrays, and a batch of
inputs is a (vertices, batch) array swept level by level, one matmul and one
vectorised activation per level.  `forward` is a batch of one.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from types import MappingProxyType

import numpy as np

from .errors import ShapeMismatch, SingularPreActivation, UnframableArrow
from .moduli import ModuliPoint, project
from .quiver import Quiver
from .rep import DoubleFramedTriple, Representation
from .thincat import ThinRep

PREACT_TOL = 1e-12


@dataclass(frozen=True)
class Activation:
    """`fn` and its derivative `dfn`, both elementwise on floats and arrays."""

    name: str
    fn: object
    dfn: object


def _sigmoid(z):
    # exp of a nonpositive argument only, so no z overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


ACTIVATIONS = {
    "identity": Activation("identity", lambda z: z, np.ones_like),
    # subgradient 0 at the kink
    "relu": Activation("relu", lambda z: np.maximum(z, 0.0), lambda z: np.heaviside(z, 0.0)),
    "tanh": Activation("tanh", np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": Activation("sigmoid", _sigmoid, lambda z: _sigmoid(z) * _sigmoid(-z)),
}


@dataclass(frozen=True)
class NeuralNetwork:
    """Frozen, with a read-only copy of `activations`, so the cached
    `compiled` structure cannot go stale."""

    weights: ThinRep
    activations: Mapping
    bias: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        q = self.quiver
        if q.has_parallel_arrows:
            raise ShapeMismatch("network quivers do not allow parallel arrows")
        if q.source_sink_arrows:
            raise UnframableArrow("network quivers may not connect a source directly to a sink")
        object.__setattr__(self, "activations", MappingProxyType(dict(self.activations)))
        object.__setattr__(self, "bias", frozenset(self.bias))
        if not self.bias <= q.source_set:
            raise ShapeMismatch("bias vertices must be sources")
        for v in q.hidden:
            tag = self.activations.get(v)
            if tag not in ACTIVATIONS:
                raise ShapeMismatch(f"vertex {v!r} has unknown activation {tag!r}")

    @property
    def quiver(self):
        return self.weights.quiver

    @property
    def input_vertices(self):
        return tuple(v for v in self.quiver.sources if v not in self.bias)

    @property
    def output_vertices(self):
        return self.quiver.sinks

    @cached_property
    def compiled(self) -> "CompiledNetwork":
        """The compiled structure, built on first use from the quiver,
        activations and bias set."""
        return CompiledNetwork(self)

    def weight_blocks(self) -> list:
        """The compiled per-level weight blocks of the current weights."""
        return self.compiled.level_blocks(self.compiled.weight_vector(self.weights.weights))


@dataclass(frozen=True)
class _Level:
    lo: int  # the level reads value rows lo:start
    start: int  # and writes rows start:stop
    stop: int
    rows: np.ndarray  # its arrows scattered into the (stop - start, start - lo) weight block
    cols: np.ndarray
    arrows: np.ndarray  # positions of those arrows in the weight vector
    groups: tuple  # (activation, first row, end row) per run of one non-identity activation


class CompiledNetwork:
    """Index arrays of a network's structure: its quiver, activations and bias
    set, never its weights.

    Vertices are ordered by longest-path level: the inputs, then the bias
    vertices, then each later level with its vertices grouped by activation.
    Values of a batch are (vertices, batch) arrays in that order; `row` maps a
    vertex to its row and `outputs` holds the sink rows in declaration order.
    """

    def __init__(self, net: NeuralNetwork):
        q = net.quiver
        level = {}
        for v in q.topological:
            into = q.arrows_into(v)
            level[v] = 1 + max(level[a.source] for a in into) if into else 0
        tag = {v: "identity" if v in q.source_set or v in q.sink_set else net.activations[v] for v in q.vertices}
        inputs = net.input_vertices
        bias = tuple(v for v in q.sources if v in net.bias)
        later = sorted((v for v in q.topological if level[v] > 0), key=lambda v: (level[v], tag[v]))
        self.vertices = inputs + bias + tuple(later)
        self.row = {v: r for r, v in enumerate(self.vertices)}
        self.n_inputs = len(inputs)
        self.n_sources = len(inputs) + len(bias)
        self.arrows = tuple(a.id for a in q.arrows)
        self.arrow_sources = np.array([self.row[a.source] for a in q.arrows], dtype=np.intp)
        self.outputs = np.array([self.row[v] for v in q.sinks], dtype=np.intp)

        by_level = {}
        for k, a in enumerate(q.arrows):
            by_level.setdefault(level[a.target], []).append(k)
        levels, start = [], self.n_sources
        for depth, members in groupby(later, key=level.get):
            members = list(members)
            stop = start + len(members)
            ks = by_level[depth]
            src = np.array([self.row[q.arrows[k].source] for k in ks], dtype=np.intp)
            tgt = np.array([self.row[q.arrows[k].target] for k in ks], dtype=np.intp)
            lo = int(src.min())
            groups, r = [], start
            for name, run in groupby(members, key=tag.get):
                n = len(list(run))
                if name != "identity":
                    groups.append((ACTIVATIONS[name], r, r + n))
                r += n
            arrows = np.array(ks, dtype=np.intp)
            levels.append(_Level(lo, start, stop, tgt - start, src - lo, arrows, tuple(groups)))
            start = stop
        self.levels = tuple(levels)

    def weight_vector(self, weights: dict) -> np.ndarray:
        """Arrow weights in declaration order."""
        return np.fromiter((weights[a] for a in self.arrows), float, len(self.arrows))

    def level_blocks(self, w) -> list:
        """One dense weight block per level from a weight vector."""
        blocks = []
        for lv in self.levels:
            m = np.zeros((lv.stop - lv.start, lv.start - lv.lo))
            m[lv.rows, lv.cols] = w[lv.arrows]
            blocks.append(m)
        return blocks

    def forward(self, blocks, x) -> tuple:
        """Evaluate the (inputs, batch) array x.  Returns (values, pre), both
        (vertices, batch); pre is 0 on sources."""
        values = np.empty((len(self.vertices), x.shape[1]))
        pre = np.zeros_like(values)
        values[: self.n_inputs] = x
        values[self.n_inputs : self.n_sources] = 1.0
        for lv, m in zip(self.levels, blocks):
            np.matmul(m, values[lv.lo : lv.start], out=pre[lv.start : lv.stop])
            values[lv.start : lv.stop] = pre[lv.start : lv.stop]
            for act, a, b in lv.groups:
                values[a:b] = act.fn(pre[a:b])
        return values, pre

    def backward(self, blocks, values, pre, d_out) -> tuple:
        """Reverse sweep from the (outputs, batch) adjoints d_out.  Returns the
        weight gradient summed over the batch, in arrow order, and the
        (vertices, batch) adjoints of the vertex values."""
        adj = np.zeros_like(values)
        adj[self.outputs] = d_out
        dw = np.empty(len(self.arrows))
        for lv, m in zip(reversed(self.levels), reversed(blocks)):
            dz = adj[lv.start : lv.stop].copy()
            for act, a, b in lv.groups:
                dz[a - lv.start : b - lv.start] *= act.dfn(pre[a:b])
            adj[lv.lo : lv.start] += m.T @ dz
            dw[lv.arrows] = (dz @ values[lv.lo : lv.start].T)[lv.rows, lv.cols]
        return dw, adj


def columns(vectors, n, what="inputs") -> np.ndarray:
    """Stack vectors of length n as the columns of an (n, batch) array."""
    out = np.empty((n, len(vectors)))
    for b, vec in enumerate(vectors):
        vec = np.asarray(vec, dtype=float).ravel()
        if vec.shape[0] != n:
            raise ShapeMismatch(f"expected {n} {what}, got {vec.shape[0]}")
        out[:, b] = vec
    return out


@dataclass
class ForwardTrace:
    values: dict  # post-activation value per vertex
    pre: dict  # pre-activation per non-source vertex


def forward(net: NeuralNetwork, x) -> tuple:
    """Evaluate one input: a batch of one on the compiled network.

    Returns (outputs at sinks in declaration order, trace of all vertex values).
    """
    c = net.compiled
    values, pre = c.forward(net.weight_blocks(), columns([x], c.n_inputs))
    trace = ForwardTrace(
        values=dict(zip(c.vertices, values[:, 0].tolist())),
        pre=dict(zip(c.vertices[c.n_sources :], pre[c.n_sources :, 0].tolist())),
    )
    return values[c.outputs, 0], trace


def linear_forward(rep: Representation, inputs: dict) -> dict:
    """Propagate vectors through a representation with no activations; works for
    any dimension vector.  inputs maps each source to a vector of its dimension."""
    q = rep.quiver
    vals = {}
    for v in q.topological:
        if v in q.source_set:
            vals[v] = np.asarray(inputs[v], dtype=float).reshape(rep.dims[v])
        else:
            vals[v] = sum((rep.matrices[a.id] @ vals[a.source] for a in q.arrows_into(v)), np.zeros(rep.dims[v]))
    return {v: vals[v] for v in q.sinks}


def in_matrix(q: Quiver, dims: dict, framing) -> np.ndarray:
    """Distribute stacked source values into every framing slot they feed."""
    src_off, off = {}, 0
    for s in q.sources:
        src_off[s] = off
        off += dims[s]
    total_in = off
    rows = sum(framing.u[i] for i in q.hidden)
    m = np.zeros((rows, total_in))
    r = 0
    for i in q.hidden:
        for a, d in framing.in_slots[i]:
            m[r : r + d, src_off[a.source] : src_off[a.source] + d] = np.eye(d)
            r += d
    return m


def out_matrix(q: Quiver, dims: dict, framing) -> np.ndarray:
    """Sum the framing-out slots into the stacked sink values."""
    snk_off, off = {}, 0
    for s in q.sinks:
        snk_off[s] = off
        off += dims[s]
    total_out = off
    cols = sum(framing.w[i] for i in q.hidden)
    m = np.zeros((total_out, cols))
    c = 0
    for j in q.hidden:
        for a, d in framing.out_slots[j]:
            m[snk_off[a.target] : snk_off[a.target] + d, c : c + d] = np.eye(d)
            c += d
    return m


def network_matrix(t: DoubleFramedTriple) -> np.ndarray:
    """The linear input-to-output map of a triple, computed through its moduli
    point; equal to activation-free forward propagation."""
    return network_matrix_from_point(project(t))


def network_matrix_from_point(m: ModuliPoint) -> np.ndarray:
    # assembled() spans exactly the vertices with nonzero framing, in hidden
    # declaration order, which matches the in/out matrix slot layouts
    q = m.quiver
    return out_matrix(q, m.dims, m.framing) @ m.assembled() @ in_matrix(q, m.dims, m.framing)


def knowledge_map(net: NeuralNetwork, x) -> ThinRep:
    """Input-dependent thin representation: input arrows absorb the input value,
    bias arrows keep their weight, arrows out of hidden vertices are scaled by
    activation / pre-activation.

    Raises SingularPreActivation when a needed pre-activation vanishes.
    """
    c = net.compiled
    w = c.weight_vector(net.weights.weights)
    values, pre = c.forward(c.level_blocks(w), columns([x], c.n_inputs))
    src = c.arrow_sources
    z = pre[src, 0]
    hidden = src >= c.n_sources  # sinks are no arrow's source
    singular = np.flatnonzero(hidden & (np.abs(z) <= PREACT_TOL))
    if singular.size:
        k = singular[0]
        raise SingularPreActivation(c.vertices[src[k]], float(z[k]))
    k_weights = w * values[src, 0]  # a bias vertex's value is 1
    k_weights[hidden] /= z[hidden]
    return ThinRep(net.quiver, dict(zip(c.arrows, k_weights.tolist())))


def psi_hat(obj) -> np.ndarray:
    """Evaluate on the all-ones input with identity activations.

    Accepts a thin representation or a moduli point; the two entry points agree
    on projections of thin representations.
    """
    if isinstance(obj, ModuliPoint):
        return network_matrix_from_point(obj) @ np.ones(sum(obj.dims[s] for s in obj.quiver.sources))
    if isinstance(obj, ThinRep):
        rep = obj.to_representation()
        outs = linear_forward(rep, {s: np.ones(1) for s in obj.quiver.sources})
        return np.array([outs[s][0] for s in obj.quiver.sinks])
    raise ShapeMismatch(f"cannot evaluate object of type {type(obj).__name__}")
