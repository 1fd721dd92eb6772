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
from .moduli import ModuliPoint
from .quiver import Quiver
from .rep import DoubleFramedTriple, Representation, block_plan, join, layout, memoised
from .thincat import ThinRep

PREACT_TOL = 1e-12


@dataclass(frozen=True)
class Activation:
    """`fn` and its derivative `dfn`, both elementwise on floats and arrays."""

    fn: object
    dfn: object


def _sigmoid(z):
    # exp of a nonpositive argument only, so no z overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


ACTIVATIONS = {
    "identity": Activation(lambda z: z, np.ones_like),
    # subgradient 0 at the kink
    "relu": Activation(lambda z: np.maximum(z, 0.0), lambda z: np.heaviside(z, 0.0)),
    "tanh": Activation(np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": Activation(_sigmoid, lambda z: _sigmoid(z) * _sigmoid(-z)),
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
        return self.compiled.plan.blocks([self.compiled.weight_vector(self.weights.weights)])


class CompiledNetwork:
    """Index arrays of a network's structure: its quiver, activations and bias
    set, never its weights.

    Vertices are ordered by longest-path level: the inputs, then the bias
    vertices, then each later level with its vertices grouped by activation.
    Values of a batch are (vertices, batch) arrays in that order, and
    `outputs` are the sink rows in declaration order.  `plan` is the
    `rep.block_plan` of the levels, whose sweep `forward` runs; `groups`
    holds per level the (activation, first row, end row) of each
    non-identity run.
    """

    def __init__(self, net: NeuralNetwork):
        q = net.quiver
        tag = {v: "identity" if v in q.source_set or v in q.sink_set else net.activations[v] for v in q.vertices}
        later = [sorted(vertices, key=tag.get) for vertices in q.levels[1:]]
        inputs = net.input_vertices
        bias = tuple(v for v in q.sources if v in net.bias)
        arrows = [(a.source, a.target) for a in q.arrows]
        self.plan = block_plan((inputs + bias, *later), dict.fromkeys(q.vertices, 1), arrows)
        row = self.plan.row
        self.vertices = tuple(row)
        self.n_inputs = len(inputs)
        self.n_sources = len(inputs) + len(bias)
        self.arrows = tuple(a.id for a in q.arrows)
        self.outputs = np.array([row[v] for v in q.sinks], dtype=np.intp)
        self.groups = []
        for members in later:
            runs = [(k, [row[v] for v in run]) for k, run in groupby(members, key=tag.get)]
            self.groups.append([(ACTIVATIONS[k], rows[0], rows[-1] + 1) for k, rows in runs if k != "identity"])

    def weight_vector(self, weights: dict) -> np.ndarray:
        """Arrow weights in declaration order."""
        return np.fromiter((weights[a] for a in self.arrows), float, len(self.arrows))

    def forward(self, blocks, x) -> tuple:
        """Evaluate the (inputs, batch) array x.  Returns (values, pre), both
        (vertices, batch); pre is 0 on sources."""
        values = np.empty((len(self.vertices), x.shape[1]))
        pre = np.zeros_like(values)
        values[: self.n_inputs] = x
        values[self.n_inputs : self.n_sources] = 1.0
        for lv, groups in zip(self.plan.sweep(blocks, values), self.groups):
            pre[lv.start : lv.stop] = values[lv.start : lv.stop]
            for act, a, b in groups:
                values[a:b] = act.fn(pre[a:b])
        return values, pre

    def backward(self, blocks, values, pre, d_out) -> tuple:
        """Reverse sweep from the (outputs, batch) adjoints d_out.  Returns the
        weight gradient summed over the batch, in arrow order, and the
        (vertices, batch) adjoints of the vertex values."""
        adj = np.zeros_like(values)
        adj[self.outputs] = d_out
        grad = np.empty(self.plan.size)
        for lv, m, groups in zip(reversed(self.plan.levels), reversed(blocks), reversed(self.groups)):
            dz = adj[lv.start : lv.stop].copy()
            for act, a, b in groups:
                dz[a - lv.start : b - lv.start] *= act.dfn(pre[a:b])
            adj[lv.lo : lv.start] += m.T @ dz
            np.matmul(dz, values[lv.lo : lv.start].T, out=grad[lv.block].reshape(m.shape))
        return grad[self.plan.at], adj


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


def linear_map(rep: Representation) -> np.ndarray:
    """The activation-free map from the stacked source spaces (`q.sources`
    order) to the stacked sink spaces: the sink rows of one `rep.block_plan`
    sweep over `q.levels` from the identity on the source rows.  Works for
    any dimension vector, parallel and source->sink arrows; reads no path."""
    q = rep.quiver
    plan, sinks = _linear_plan(q, tuple(rep.dims[v] for v in q.vertices))
    return plan.linear([rep.matrices[a.id] for a in q.arrows])[sinks]


@memoised
def _linear_plan(q: Quiver, dims):
    """`linear_map`'s plan on q under dims, a tuple in q.vertices order, and
    its sink rows; built once per quiver and dims."""
    dim = dict(zip(q.vertices, dims))
    plan = block_plan((q.sources, *q.levels[1:]), dim, [(a.source, a.target) for a in q.arrows])
    return plan, np.array([r for v in q.sinks for r in range(plan.row[v], plan.row[v] + dim[v])], dtype=np.intp)


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
    """Sum the framing-out slots into the stacked sink values: the transpose
    of `in_matrix` on the opposite quiver, whose sources are q's sinks, under
    the framing dims give it; `framing`, which dims fix as well, is not
    read."""
    return in_matrix(q.opposite, dims, layout(q.opposite, dims).framing).T


def network_matrix(t: DoubleFramedTriple) -> np.ndarray:
    """The linear input-to-output map of a triple: `linear_map` of its join.
    By the paper it equals out_matrix @ project(t).assembled() @ in_matrix, a
    function of the moduli point alone."""
    return linear_map(join(t))


def knowledge_map(net: NeuralNetwork, x) -> ThinRep:
    """Input-dependent thin representation: input arrows absorb the input value,
    bias arrows keep their weight, arrows out of hidden vertices are scaled by
    activation / pre-activation.

    Raises SingularPreActivation when a needed pre-activation vanishes.
    """
    c = net.compiled
    w = c.weight_vector(net.weights.weights)
    values, pre = c.forward(c.plan.blocks([w]), columns([x], c.n_inputs))
    src = c.plan.source_row
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
    """Evaluate on the all-ones input with identity activations: the row sums
    of the linear map.  Accepts a thin representation or a moduli point; the
    two entry points agree on projections of thin representations."""
    if isinstance(obj, ModuliPoint):
        return network_matrix(obj.triple).sum(axis=1)
    if isinstance(obj, ThinRep):
        return linear_map(obj.to_representation()).sum(axis=1)
    raise ShapeMismatch(f"cannot evaluate object of type {type(obj).__name__}")
