"""Finite acyclic quivers: validation, source/sink/hidden split, framing data, hidden paths.

Vertices and arrows are identified by strings.  A vertex with no in-arrows is a
source, one with no out-arrows is a sink, and the hidden quiver is the full
subquiver on the remaining vertices.  Framing data counts, per hidden vertex,
the incoming dimension from sources (u) and the outgoing dimension to sinks
(w), with slot order fixed by arrow declaration order.  Hidden paths come from
one loop over the topological order, once per quiver; their total is counted
in linear time against a cap before any is enumerated.
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
    neural-network quivers).  Incidence, the vertex split and the shape facts
    are derived here once; the hidden quiver, its path table and `_memo` on
    first read.
    """

    def __init__(self, vertices, arrows, roles=None, network=False):
        self.vertices = tuple(vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        self.network = bool(network)

        into = {v: [] for v in self.vertices}
        out = {v: [] for v in self.vertices}
        if len(into) != len(self.vertices):
            raise QuiverValidationError("duplicate vertex ids")
        self.arrow_by_id = {}
        for a in self.arrows:
            if a.id in self.arrow_by_id:
                raise DuplicateArrowId(a.id)
            self.arrow_by_id[a.id] = a
            if a.source not in into or a.target not in into:
                raise DanglingArrow(f"arrow {a.id}: {a.source}->{a.target} has undeclared endpoint")
            into[a.target].append(a)
            out[a.source].append(a)
        self._into = {v: tuple(x) for v, x in into.items()}
        self._out = {v: tuple(x) for v, x in out.items()}
        self.has_parallel_arrows = len({(a.source, a.target) for a in self.arrows}) != len(self.arrows)
        if self.network and self.has_parallel_arrows:
            raise MultipleArrows("network quivers do not allow parallel arrows")

        self.topological = self._toposort()
        self.sources = tuple(v for v in self.vertices if not into[v])
        self.sinks = tuple(v for v in self.vertices if not out[v])
        self.source_set = frozenset(self.sources)
        self.sink_set = frozenset(self.sinks)
        self.hidden = tuple(v for v in self.vertices if v not in self.source_set and v not in self.sink_set)
        self.source_sink_arrows = tuple(
            a for a in self.arrows if a.source in self.source_set and a.target in self.sink_set
        )
        self.roles = self._resolve_roles(roles)

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
        resolved = {
            v: "input" if v in self.source_set else "output" if v in self.sink_set else "hidden"
            for v in self.vertices
        }
        if roles:
            for v, r in roles.items():
                if v not in resolved:
                    raise QuiverValidationError(f"role given for unknown vertex {v!r}")
                if r not in ROLES:
                    raise QuiverValidationError(f"unknown role {r!r} for vertex {v!r}")
                if r in ("input", "bias") and resolved[v] == "hidden":
                    raise QuiverValidationError(f"{v!r} is hidden, cannot have role {r!r}")
                if r in ("input", "bias") and resolved[v] == "output":
                    raise QuiverValidationError(f"{v!r} is a sink, cannot have role {r!r}")
                if r == "output" and v not in self.sink_set:
                    raise QuiverValidationError(f"{v!r} is not a sink, cannot have role 'output'")
                if r == "hidden" and resolved[v] != "hidden":
                    raise QuiverValidationError(f"{v!r} is not hidden")
                resolved[v] = r
        return resolved

    def arrows_into(self, v):
        return self._into[v]

    def arrows_out_of(self, v):
        return self._out[v]

    def hidden_quiver(self):
        """Full subquiver on the hidden vertices, built on first call and cached."""
        return self._hidden_quiver

    @cached_property
    def _hidden_quiver(self):
        hidden = set(self.hidden)
        return Quiver(self.hidden, (a for a in self.arrows if a.source in hidden and a.target in hidden))

    @cached_property
    def opposite(self):
        """Every arrow reversed, in declaration order, so that
        `opposite.arrows_into(v)` lists the arrows of `arrows_out_of(v)`;
        sources and sinks trade places, and its own opposite is this quiver."""
        op = Quiver(self.vertices, (Arrow(a.id, a.target, a.source) for a in self.arrows), network=self.network)
        op.__dict__["opposite"] = self
        return op

    @cached_property
    def levels(self):
        """The vertices by longest-path distance from the sources, each level
        a tuple in topological order: a level's in-arrows come from earlier
        levels."""
        depth, levels = {}, []
        for v in self.topological:
            depth[v] = max((depth[a.source] + 1 for a in self._into[v]), default=0)
            if depth[v] == len(levels):
                levels.append([])
            levels[depth[v]].append(v)
        return tuple(map(tuple, levels))

    @cached_property
    def _memo(self):
        """What `rep.memoised` readers derive from this quiver alone: the
        `rep.layout` of each dims vector a triple on it was built with, which
        keeps what is derived from the quiver and those dims.  Nothing is
        evicted."""
        return {}

    @cached_property
    def _path_count(self):
        """Number of paths, lazy ones included, counted in linear time:
        n(i) = 1 + sum of n(j) over arrows i->j, summed over i."""
        n = {}
        for i in reversed(self.topological):
            n[i] = 1 + sum(n[a.target] for a in self._out[i])
        return sum(n.values())

    @cached_property
    def _paths(self):
        """The table `all_hidden_paths` returns, built on its first call."""
        paths = {}
        for v in self.topological:
            paths[v] = (Path(v, v),) + tuple(
                Path(p.start, v, p.arrows + (a.id,)) for a in self._into[v] for p in paths[a.source]
            )
        return MappingProxyType({v: paths[v] for v in self.vertices})

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
    degenerate = tuple(v for v in q.sources if v in q.sink_set)
    return Classification(q.sources, q.sinks, q.hidden, degenerate, weakly_connected(q.vertices, q.arrows))


def weakly_connected(vertices, arrows) -> bool:
    """The underlying undirected graph is connected; no vertices counts as
    connected.  Takes raw lists, so cyclic graphs such as the one-point
    extension are served too."""
    nbrs = {v: [] for v in vertices}
    for a in arrows:
        nbrs[a.source].append(a.target)
        nbrs[a.target].append(a.source)
    stack = list(nbrs)[:1]
    seen = set(stack)
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nbrs)


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
    in_slots = {i: tuple((a, dims[a.source]) for a in q.arrows_into(i) if a.source in q.source_set) for i in q.hidden}
    out_slots = {i: tuple((a, dims[a.target]) for a in q.arrows_out_of(i) if a.target in q.sink_set) for i in q.hidden}
    return FramingData(
        u={i: sum(d for _, d in slots) for i, slots in in_slots.items()},
        w={i: sum(d for _, d in slots) for i, slots in out_slots.items()},
        in_slots=in_slots,
        out_slots=out_slots,
    )


class Path(NamedTuple):
    """Directed path in the hidden quiver; empty arrow list means the lazy path."""

    start: str
    end: str
    arrows: tuple = ()

    def label(self):
        inner = ".".join(self.arrows) if self.arrows else "~"
        return f"{self.start}>{inner}>{self.end}"


def check_path_cap(hq: Quiver, cap: int = DEFAULT_PATH_CAP):
    """Raise PathExplosion when `hq` has more paths than the cap, counting
    them without enumerating any."""
    if hq._path_count > cap:
        raise PathExplosion(hq._path_count, cap)


def all_hidden_paths(hq: Quiver, cap: int = DEFAULT_PATH_CAP) -> Mapping:
    """Every path of `hq`, lazy ones included, as a read-only mapping from each
    vertex (in `hq.vertices` order) to the tuple of paths ending there, in slot
    order: the lazy path, then, for each arrow a : x -> v in `arrows_into`
    order, the paths into x extended by a.  Raises PathExplosion when the path
    count is above the cap, before anything is enumerated.  The table is built
    by one loop over `hq.topological` on the first call and cached on `hq`;
    every call checks the count against its own cap, which bounds paths, not
    the arrow ids they store: n(n+1)/2 paths but about n^3/6 ids (9-12 bytes
    each) on an n-vertex chain, so a 1,000-vertex chain needs about 1.4 GB."""
    check_path_cap(hq, cap)
    return hq._paths
