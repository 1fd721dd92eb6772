"""Thin representations with the pointwise tensor product.

Thin means every vertex carries a one-dimensional space, so a representation
is a scalar weight per arrow.  Tensor is weightwise multiplication, the unit
has every weight equal to one, and a thin representation is invertible exactly
when no weight vanishes.  Morphisms are scalar tuples fixed to 1 at sources
and sinks that intertwine the weights.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import QmnError, QuiverMismatch, ShapeMismatch
from .quiver import Quiver

ZERO_WEIGHT_TOL = 1e-12
MORPHISM_TOL = 1e-9  # the largest violation `check_morphism` accepts by default


@dataclass
class ThinRep:
    quiver: Quiver
    weights: dict

    def __post_init__(self):
        try:
            self.weights = {a.id: float(self.weights[a.id]) for a in self.quiver.arrows}
        except KeyError as exc:
            raise ShapeMismatch(f"no weight for arrow {exc.args[0]!r}") from None

    def to_representation(self):
        from .rep import Representation

        dims = {v: 1 for v in self.quiver.vertices}
        mats = {aid: np.array([[wt]]) for aid, wt in self.weights.items()}
        return Representation(self.quiver, dims, mats)

    def to_triple(self):
        from .rep import split

        return split(self.to_representation())


def _same_quiver(a: ThinRep, b: ThinRep):
    if a.quiver is not b.quiver and (
        a.quiver.vertices != b.quiver.vertices
        or a.quiver.arrows != b.quiver.arrows
    ):
        raise QuiverMismatch("thin representations live on different quivers")


def tensor(a: ThinRep, b: ThinRep) -> ThinRep:
    """Pointwise tensor product; for thin weights this is the arrowwise product."""
    _same_quiver(a, b)
    return ThinRep(a.quiver, {k: a.weights[k] * b.weights[k] for k in a.weights})


def unit(q: Quiver) -> ThinRep:
    """Tensor unit: every arrow weight equal to one."""
    return ThinRep(q, {a.id: 1.0 for a in q.arrows})


def is_invertible(a: ThinRep) -> bool:
    return all(abs(wt) > ZERO_WEIGHT_TOL for wt in a.weights.values())


def inverse(a: ThinRep) -> ThinRep:
    if not is_invertible(a):
        raise ShapeMismatch("representation has a zero weight, no tensor inverse")
    return ThinRep(a.quiver, {k: 1.0 / wt for k, wt in a.weights.items()})


@dataclass(frozen=True)
class MorphismReport:
    valid: bool
    invertible: bool
    max_violation: float


def check_morphism(g: dict, a: ThinRep, b: ThinRep, tol=MORPHISM_TOL) -> MorphismReport:
    """Verify the boundary condition (g = 1 at sources and sinks) and the
    intertwining relation g_t * a_edge = b_edge * g_s on every arrow.  Raises
    QmnError on a tol that is not a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise QmnError(f"morphism tolerance must be finite and >= 0, got {tol}")
    _same_quiver(a, b)
    q = a.quiver
    worst = 0.0
    for v in q.sources + q.sinks:
        worst = max(worst, abs(g.get(v, 0.0) - 1.0))
    for ar in q.arrows:
        lhs = g.get(ar.target, 0.0) * a.weights[ar.id]
        rhs = b.weights[ar.id] * g.get(ar.source, 0.0)
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    valid = worst <= tol
    invertible = valid and all(abs(g.get(v, 0.0)) > ZERO_WEIGHT_TOL for v in q.vertices)
    return MorphismReport(valid=valid, invertible=invertible, max_violation=worst)


def solve_morphism(a: ThinRep, b: ThinRep, tol=MORPHISM_TOL) -> dict | None:
    """Search for a morphism a -> b.  Starting from g = 1 at sources and
    sinks, the relation g_t a = b g_s fixes g_t from g_s where a != 0
    (forward) and g_s from g_t where b != 0 (backward); both are propagated
    until nothing changes; so are the zeros forced where only a (g_t = 0) or
    only b (g_s = 0) is nonzero.  Each vertex still unset then seeds its
    component with g = 1, which loses nothing: there the relations are
    homogeneous.

    Every propagated value is forced by the relations, so an invertible
    morphism is found whenever one exists.  Returns the scalar family when
    all intertwining constraints hold, else None.  `check_morphism` decides
    that, and rejects a tol out of range.
    """
    _same_quiver(a, b)
    q = a.quiver
    g = {}

    def propagate(seeds, value=1.0):
        stack = list(seeds)
        g.update(dict.fromkeys(seeds, value))
        while stack:
            v = stack.pop()
            for ar in q.arrows_out_of(v):
                if ar.target not in g and abs(a.weights[ar.id]) > ZERO_WEIGHT_TOL:
                    g[ar.target] = b.weights[ar.id] * g[v] / a.weights[ar.id]
                    stack.append(ar.target)
            for ar in q.arrows_into(v):
                if ar.source not in g and abs(b.weights[ar.id]) > ZERO_WEIGHT_TOL:
                    g[ar.source] = a.weights[ar.id] * g[v] / b.weights[ar.id]
                    stack.append(ar.source)

    propagate(q.sources + q.sinks)
    for ar in q.arrows:
        wa, wb = (abs(w.weights[ar.id]) > ZERO_WEIGHT_TOL for w in (a, b))
        if wa != wb and (forced := ar.target if wa else ar.source) not in g:
            propagate([forced], 0.0)
    for v in q.vertices:
        if v not in g:
            propagate([v])
    report = check_morphism(g, a, b, tol)
    return g if report.valid else None
