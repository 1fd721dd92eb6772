import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmn.errors import CyclicQuiver, DanglingArrow, DuplicateArrowId, MultipleArrows, PathExplosion
from qmn.examples import quiver_a3, quiver_d4tilde, random_dag_quiver, thin_dims
from qmn.quiver import Path, Quiver, all_hidden_paths, framing_data, validate

from conftest import brute_force_paths, longest_path_depths


def test_classify_a3():
    c = validate(quiver_a3())
    assert c.sources == ("i",)
    assert c.sinks == ("k",)
    assert c.hidden == ("j",)
    assert not c.degenerate


def test_classify_isolated_vertex_is_degenerate():
    c = validate(Quiver(["v"], []))
    assert c.sources == ("v",)
    assert c.sinks == ("v",)
    assert c.degenerate == ("v",)


def test_two_cycle_rejected():
    with pytest.raises(CyclicQuiver):
        Quiver(["x", "y"], [("a", "x", "y"), ("b", "y", "x")])


def test_dangling_arrow_rejected():
    with pytest.raises(DanglingArrow):
        Quiver(["x"], [("a", "x", "nowhere")])


def test_duplicate_arrow_id_rejected():
    with pytest.raises(DuplicateArrowId):
        Quiver(["x", "y", "z"], [("a", "x", "y"), ("a", "y", "z")])


def test_parallel_arrows_allowed_unless_network():
    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])
    assert len(q.arrows) == 2
    with pytest.raises(MultipleArrows):
        Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")], network=True)


def test_framing_d4tilde():
    q = quiver_d4tilde()
    fr = framing_data(q, thin_dims(q))
    assert fr.u == {"v1": 2, "v2": 2, "v3": 0, "v4": 0, "v5": 1}
    assert fr.w == {"v1": 0, "v2": 0, "v3": 0, "v4": 2, "v5": 2}
    # slot order follows arrow declaration order
    assert [a.id for a, _ in fr.in_slots["v1"]] == ["phi1", "phi2"]
    assert [a.id for a, _ in fr.out_slots["v5"]] == ["w_1", "w_2"]


def test_framing_a3_thin():
    q = quiver_a3()
    fr = framing_data(q, thin_dims(q))
    assert fr.u == {"j": 1}
    assert fr.w == {"j": 1}


def test_framing_additive_in_arrows():
    base = Quiver(
        ["s", "s2", "v", "t"],
        [("sv", "s", "v"), ("vt", "v", "t")],
    )
    more = Quiver(
        ["s", "s2", "v", "t"],
        [("sv", "s", "v"), ("vt", "v", "t"), ("s2v", "s2", "v")],
    )
    dims = {"s": 1, "s2": 3, "v": 2, "t": 1}
    u0 = framing_data(base, dims).u["v"]
    u1 = framing_data(more, dims).u["v"]
    assert u1 - u0 == 3


def test_paths_d4tilde():
    paths = all_hidden_paths(quiver_d4tilde().hidden_quiver())
    assert paths["v4"] == (
        Path("v4", "v4"),
        Path("v3", "v4", ("c",)),
        Path("v1", "v4", ("a", "c")),
        Path("v2", "v4", ("b", "c")),
    )
    assert paths["v5"][0] == Path("v5", "v5", ())
    assert [p for p in paths["v1"] if p.start == "v4"] == []


def test_lazy_path_always_present():
    hq = quiver_a3().hidden_quiver()
    assert all_hidden_paths(hq) == {"j": (Path("j", "j", ()),)}


def test_path_cap():
    hq = quiver_d4tilde().hidden_quiver()
    with pytest.raises(PathExplosion):
        all_hidden_paths(hq, cap=3)


@st.composite
def small_dags(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    vertices = [f"h{i}" for i in range(n)]
    arrows = []
    aid = 0
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                arrows.append((f"a{aid}", vertices[i], vertices[j]))
                aid += 1
    return Quiver(vertices, arrows)


@settings(max_examples=60, deadline=None)
@given(
    small_dags()
    | st.builds(
        lambda seed, n: random_dag_quiver(np.random.default_rng(seed), n_hidden=n),
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
    )
)
def test_derived_facts_match_brute_force(q):
    """The facts a quiver derives once equal filters over its arrow list, the
    cached ones come back as the same object on every read, and the paths,
    built afresh on each read, come back equal."""
    heads = {a.target for a in q.arrows}
    tails = {a.source for a in q.arrows}
    for v in q.vertices:
        assert q.arrows_into(v) == tuple(a for a in q.arrows if a.target == v)
        assert q.arrows_out_of(v) == tuple(a for a in q.arrows if a.source == v)
        assert q.arrows_into(v) is q.arrows_into(v)
    assert q.sources == tuple(v for v in q.vertices if v not in heads)
    assert q.sinks == tuple(v for v in q.vertices if v not in tails)
    assert q.hidden == tuple(v for v in q.vertices if v in heads and v in tails)
    assert (q.source_set, q.sink_set) == (set(q.sources), set(q.sinks))
    pairs = [(a.source, a.target) for a in q.arrows]
    assert q.has_parallel_arrows == any(pairs.count(p) > 1 for p in pairs)
    assert q.source_sink_arrows == tuple(a for a in q.arrows if a.source not in heads and a.target not in tails)
    hq = q.hidden_quiver()
    assert hq is q.hidden_quiver()
    assert all_hidden_paths(hq) == all_hidden_paths(hq)


def adjacency_power_sum(q):
    """Vertex index and sum_k A^k over the arrow-count adjacency matrix: entry
    (i, j) counts the paths i -> j, lazy paths included."""
    n = len(q.vertices)
    idx = {v: i for i, v in enumerate(q.vertices)}
    a = np.zeros((n, n), dtype=int)
    for arrow in q.arrows:
        a[idx[arrow.source], idx[arrow.target]] += 1
    total = np.eye(n, dtype=int)
    power = np.eye(n, dtype=int)
    for _ in range(n):
        power = power @ a
        total += power
    return idx, total


@settings(max_examples=40, deadline=None)
@given(small_dags())
def test_path_counts_match_adjacency_powers(q):
    """The paths ending at each vertex, lazy path first, agree per start vertex
    in number with sum_k A^k and in content with breadth-first search
    (brute-force oracles)."""
    # the path functions run on the whole DAG, as if every vertex were hidden
    idx, total = adjacency_power_sum(q)
    paths = all_hidden_paths(q)
    assert list(paths) == list(q.vertices)
    for j, found in paths.items():
        assert found[0] == Path(j, j, ())
        assert all(p.end == j for p in found)
        for i in q.vertices:
            arrows = [p.arrows for p in found if p.start == i]
            assert len(arrows) == total[idx[i], idx[j]]
            assert sorted(arrows) == brute_force_paths(q, i, j)


@settings(max_examples=40, deadline=None)
@given(small_dags())
def test_path_cap_boundary(q):
    """A cap equal to the oracle's total path count passes; one less raises
    PathExplosion reporting that total."""
    _, total = adjacency_power_sum(q)
    count = int(total.sum())
    assert sum(len(ps) for ps in all_hidden_paths(q, cap=count).values()) == count
    with pytest.raises(PathExplosion) as exc:
        all_hidden_paths(q, cap=count - 1)
    assert exc.value.count == count and exc.value.cap == count - 1


def test_cached_paths_still_checked_against_the_cap():
    """Each call enumerates the paths afresh into an equal read-only mapping
    of tuples, kept by no quiver, and a later call with a lower cap still
    raises with the full count."""
    hq = quiver_d4tilde().hidden_quiver()
    paths = all_hidden_paths(hq)
    total = sum(len(ps) for ps in paths.values())
    assert all_hidden_paths(hq) == paths and all_hidden_paths(hq) is not paths
    assert all(isinstance(ps, tuple) for ps in paths.values())
    with pytest.raises(TypeError):
        paths[next(iter(paths))] = ()
    with pytest.raises(PathExplosion) as exc:
        all_hidden_paths(hq, cap=total - 1)
    assert exc.value.count == total


@settings(max_examples=25, deadline=None)
@given(small_dags())
def test_path_recurrence_closure(q):
    """The paths into j come in slot order, the lazy path and then the paths
    into each arrow's source extended by it, in `arrows_into` order; and per
    start i they are lazy(i == j) union {arrow . tail}, split at the first
    arrow instead of the last."""
    paths = all_hidden_paths(q)
    for j in q.vertices:
        assert paths[j][1:] == tuple(
            Path(p.start, j, p.arrows + (a.id,)) for a in q.arrows_into(j) for p in paths[a.source]
        )
        for i in q.vertices:
            got = {p.arrows for p in paths[j] if p.start == i}
            expected = {()} if i == j else set()
            for a in q.arrows_out_of(i):
                expected |= {(a.id,) + p.arrows for p in paths[j] if p.start == a.target}
            assert got == expected


def test_deep_chain_needs_no_recursion():
    """A 300-vertex hidden chain (45,150 paths) is enumerated with the
    recursion limit 100 frames above the caller's own depth."""
    n = 300
    hidden = [f"h{k}" for k in range(n)]
    arrows = [("in", "s", hidden[0]), ("out", hidden[-1], "t")]
    arrows += [(f"a{k}", hidden[k], hidden[k + 1]) for k in range(n - 1)]
    hq = Quiver(["s", *hidden, "t"], arrows).hidden_quiver()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        paths = all_hidden_paths(hq)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(map(len, paths.values())) == n * (n + 1) // 2
    assert paths[hidden[-1]][-1] == Path(hidden[0], hidden[-1], tuple(f"a{k}" for k in range(n - 1)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_levels_are_longest_path_distances(seed, n_hidden):
    """`Quiver.levels` of a random DAG and of its hidden quiver: level k holds
    the vertices k arrows from a source by a longest path, in topological
    order, and every arrow climbs to a later level."""
    q = random_dag_quiver(np.random.default_rng(seed), n_hidden=n_hidden)
    for quiver in (q, q.hidden_quiver()):
        depth = longest_path_depths(quiver)
        assert quiver.levels == tuple(
            tuple(v for v in quiver.topological if depth[v] == k) for k in range(max(depth.values()) + 1)
        )
        level = {v: k for k, vertices in enumerate(quiver.levels) for v in vertices}
        assert all(level[a.source] < level[a.target] for a in quiver.arrows)
        assert quiver.levels is quiver.levels
