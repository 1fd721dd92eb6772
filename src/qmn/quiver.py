"""Finite acyclic quivers: validation, source/sink/hidden split, framing data, hidden paths.

Vertices and arrows are identified by strings.  A vertex with no in-arrows is a
source, one with no out-arrows is a sink, and the hidden quiver is the full
subquiver on the remaining vertices.  Framing data counts, per hidden vertex,
the incoming dimension from sources (u) and the outgoing dimension to sinks
(w), with slot order fixed by arrow declaration order.  Hidden paths come from
one walk per start vertex, once per quiver; their total is counted in linear
time against a cap before any is enumerated.
"""

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    CyclicQuiver,
    DanglingArrow,
    DuplicateArrowId,
    MultipleArrows,
    PathExplosion,
    QuiverValidationError,
)

DEFAULT_PATH_CAP = 10**6

ROLES = ("input", "bias", "output", "hidden")


@dataclass(frozen=True)
class Arrow:
    id: str
    source: str
    target: str


class Quiver:
    """Acyclic directed multigraph.  Raises on construction if invalid.

    `network=True` additionally forbids parallel arrows (the convention for
    neural-network quivers).
    """

    def __init__(self, vertices, arrows, roles=None, network=False):
        self.vertices = tuple(vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        self.network = bool(network)

        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise QuiverValidationError("duplicate vertex ids")
        seen = set()
        for a in self.arrows:
            if a.id in seen:
                raise DuplicateArrowId(a.id)
            seen.add(a.id)
            if a.source not in vset or a.target not in vset:
                raise DanglingArrow(f"arrow {a.id}: {a.source}->{a.target} has undeclared endpoint")
        if self.network:
            pairs = {(a.source, a.target) for a in self.arrows}
            if len(pairs) != len(self.arrows):
                raise MultipleArrows("network quivers do not allow parallel arrows")

        self._into = {v: [] for v in self.vertices}
        self._out = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._into[a.target].append(a)
            self._out[a.source].append(a)

        self.topological = self._toposort()
        self.sources = tuple(v for v in self.vertices if not self._into[v])
        self.sinks = tuple(v for v in self.vertices if not self._out[v])
        ss = set(self.sources) | set(self.sinks)
        self.hidden = tuple(v for v in self.vertices if v not in ss)

        self.roles = self._resolve_roles(roles)
        self._hidden_quiver = None
        self._hidden_paths = None

    def _toposort(self):
        indeg = {v: len(self._into[v]) for v in self.vertices}
        queue = deque(v for v in self.vertices if indeg[v] == 0)
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for a in self._out[v]:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
        if len(order) != len(self.vertices):
            raise CyclicQuiver("quiver has a directed cycle")
        return tuple(order)

    def _resolve_roles(self, roles):
        resolved = {}
        for v in self.vertices:
            if v in set(self.sources):
                resolved[v] = "input"
            elif v in set(self.sinks):
                resolved[v] = "output"
            else:
                resolved[v] = "hidden"
        if roles:
            for v, r in roles.items():
                if v not in resolved:
                    raise QuiverValidationError(f"role given for unknown vertex {v!r}")
                if r not in ROLES:
                    raise QuiverValidationError(f"unknown role {r!r} for vertex {v!r}")
                if r in ("input", "bias") and resolved[v] == "hidden":
                    raise QuiverValidationError(f"{v!r} is hidden, cannot have role {r!r}")
                if r in ("input", "bias") and v in set(self.sinks) and v not in set(self.sources):
                    raise QuiverValidationError(f"{v!r} is a sink, cannot have role {r!r}")
                if r == "output" and v not in set(self.sinks):
                    raise QuiverValidationError(f"{v!r} is not a sink, cannot have role 'output'")
                if r == "hidden" and v not in set(self.hidden):
                    raise QuiverValidationError(f"{v!r} is not hidden")
                resolved[v] = r
        return resolved

    def arrows_into(self, v):
        return tuple(self._into[v])

    def arrows_out_of(self, v):
        return tuple(self._out[v])

    def hidden_quiver(self):
        """Full subquiver on the hidden vertices, built on first call and cached."""
        if self._hidden_quiver is None:
            hs = set(self.hidden)
            self._hidden_quiver = Quiver(
                self.hidden, (a for a in self.arrows if a.source in hs and a.target in hs)
            )
        return self._hidden_quiver

    @cached_property
    def _path_count(self):
        """Number of paths, lazy ones included, counted in linear time:
        n(i) = 1 + sum of n(j) over arrows i->j, summed over i."""
        n = {}
        for i in reversed(self.topological):
            n[i] = 1 + sum(n[a.target] for a in self._out[i])
        return sum(n.values())

    def source_arrows_into(self, v):
        """Arrows from sources of Q into hidden vertex v, in declaration order."""
        src = set(self.sources)
        return tuple(a for a in self._into[v] if a.source in src)

    def sink_arrows_out_of(self, v):
        snk = set(self.sinks)
        return tuple(a for a in self._out[v] if a.target in snk)

    def direct_source_sink_arrows(self):
        src, snk = set(self.sources), set(self.sinks)
        return tuple(a for a in self.arrows if a.source in src and a.target in snk)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class Classification:
    sources: tuple
    sinks: tuple
    hidden: tuple
    degenerate: tuple  # vertices that are both source and sink (isolated)
    weakly_connected: bool


def validate(q: Quiver) -> Classification:
    """Partition vertices into sources/sinks/hidden and report connectivity.

    Construction of `Quiver` already raises on cycles, dangling arrows, or
    duplicate ids; this returns the classification report.
    """
    degenerate = tuple(v for v in q.vertices if v in set(q.sources) and v in set(q.sinks))
    # weak connectivity over the underlying undirected graph
    if not q.vertices:
        connected = True
    else:
        seen = {q.vertices[0]}
        frontier = deque(seen)
        nbrs = {v: set() for v in q.vertices}
        for a in q.arrows:
            nbrs[a.source].add(a.target)
            nbrs[a.target].add(a.source)
        while frontier:
            v = frontier.popleft()
            for w in nbrs[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        connected = len(seen) == len(q.vertices)
    return Classification(q.sources, q.sinks, q.hidden, degenerate, connected)


@dataclass(frozen=True)
class FramingData:
    """Per hidden vertex: collected source dimension u, sink dimension w, slot lists.

    in_slots[i] is the ordered list of (arrow, dim(source)) for arrows from
    sources into i; u[i] is the sum of those dims.  out_slots/w mirror this
    for arrows into sinks.  All four are read-only copies, so triples that
    share a framing cannot change each other's shapes.
    """

    u: Mapping
    w: Mapping
    in_slots: Mapping
    out_slots: Mapping

    def __post_init__(self):
        for name in ("u", "w", "in_slots", "out_slots"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))


def framing_data(q: Quiver, dims: dict) -> FramingData:
    """Collect framing multiplicities u_i, w_i for every hidden vertex."""
    for v in q.sources + q.sinks:
        if dims.get(v, 0) <= 0:
            raise QuiverValidationError(f"dimension at framed vertex {v!r} must be positive")
    u, w, in_slots, out_slots = {}, {}, {}, {}
    for i in q.hidden:
        ins = [(a, dims[a.source]) for a in q.source_arrows_into(i)]
        outs = [(a, dims[a.target]) for a in q.sink_arrows_out_of(i)]
        in_slots[i] = tuple(ins)
        out_slots[i] = tuple(outs)
        u[i] = sum(d for _, d in ins)
        w[i] = sum(d for _, d in outs)
    return FramingData(u=u, w=w, in_slots=in_slots, out_slots=out_slots)


class Path(NamedTuple):
    """Directed path in the hidden quiver; empty arrow list means the lazy path."""

    start: str
    end: str
    arrows: tuple = ()

    def label(self):
        inner = ".".join(self.arrows) if self.arrows else "~"
        return f"{self.start}>{inner}>{self.end}"


def _paths_from(hq: Quiver, start) -> dict:
    """One walk from `start`: every path out of it, bucketed by end vertex, each
    bucket sorted by arrow-id sequence so the lazy path comes first."""
    found = {v: [] for v in hq.vertices}

    def walk(v, arrows):
        found[v].append(Path(start, v, arrows))
        for a in hq.arrows_out_of(v):
            walk(a.target, arrows + (a.id,))

    walk(start, ())
    for bucket in found.values():
        bucket.sort(key=lambda p: p.arrows)
    return found


def enumerate_paths(hq: Quiver, start, end):
    """All directed paths start->end in the hidden quiver, lazy path included,
    sorted lexicographically by arrow-id sequence."""
    if start not in set(hq.vertices) or end not in set(hq.vertices):
        raise QuiverValidationError("path endpoints must be hidden vertices")
    return _paths_from(hq, start)[end]


def all_hidden_paths(hq: Quiver, cap: int = DEFAULT_PATH_CAP) -> Mapping:
    """Paths for every ordered pair of hidden vertices, as a read-only mapping
    of tuples.  Raises PathExplosion when the path count is above the cap,
    before anything is enumerated.  The paths come from one walk per start
    vertex on the first call and are cached on `hq`; every call checks the
    count against its own cap."""
    if hq._path_count > cap:
        raise PathExplosion(hq._path_count, cap)
    if hq._hidden_paths is None:
        found = {i: _paths_from(hq, i) for i in hq.vertices}
        hq._hidden_paths = MappingProxyType(
            {(i, j): tuple(found[i][j]) for i in hq.vertices for j in hq.vertices}
        )
    return hq._hidden_paths
