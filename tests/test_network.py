import dataclasses

import numpy as np
import pytest
from conftest import layered_quiver, path_network_matrix, rel_err
from hypothesis import given, settings, strategies as st

from qmn.errors import PathExplosion, ShapeMismatch, SingularPreActivation, UnframableArrow
from qmn.examples import (
    d4tilde_net,
    d4tilde_triple,
    quiver_a3,
    quiver_d4tilde,
    random_dag_quiver,
    random_mlp_net,
    single_vertex_net,
    thin_dims,
)
from qmn.moduli import project
from qmn.network import (
    ACTIVATIONS,
    NeuralNetwork,
    forward,
    in_matrix,
    knowledge_map,
    linear_map,
    network_matrix,
    out_matrix,
    psi_hat,
)
from qmn.quiver import Quiver, framing_data
from qmn.rep import act, join, random_gauge, random_representation, random_triple, split
from qmn.thincat import ThinRep, unit


def test_forward_d4tilde_all_ones():
    net = d4tilde_net(activation="identity")
    out, trace = forward(net, [1.0, 1.0, 1.0])
    assert np.allclose(out, [9.0, 9.0])
    assert trace.values["v3"] == pytest.approx(4.0)


def test_forward_single_vertex_relu():
    net = single_vertex_net(3.0, 2.0, activation="relu")
    for u in (-2.0, -0.5, 0.0, 0.5, 2.0):
        out, _ = forward(net, [u])
        assert out[0] == pytest.approx(2.0 * max(3.0 * u, 0.0))


def test_forward_zero_weights():
    q = quiver_d4tilde()
    qn = Quiver(q.vertices, q.arrows, network=True)
    net = NeuralNetwork(ThinRep(qn, {a.id: 0.0 for a in q.arrows}), {v: "tanh" for v in q.hidden})
    out, _ = forward(net, [1.0, 2.0, 3.0])
    assert np.allclose(out, 0.0)


def test_network_rejects_source_sink_arrow():
    q = Quiver(["s", "v", "t"], [("sv", "s", "v"), ("vt", "v", "t"), ("st", "s", "t")])
    with pytest.raises(UnframableArrow):
        NeuralNetwork(ThinRep(q, {"sv": 1.0, "vt": 1.0, "st": 1.0}), {"v": "identity"})


def test_network_rejects_parallel_arrows_on_a_non_network_quiver():
    q = Quiver(["s", "v", "t"], [("a", "s", "v"), ("b", "s", "v"), ("vt", "v", "t")])
    with pytest.raises(ShapeMismatch, match="parallel arrows"):
        NeuralNetwork(ThinRep(q, {"a": 1.0, "b": 2.0, "vt": 1.0}), {"v": "identity"})


def test_in_out_maps_d4tilde():
    q = quiver_d4tilde()
    dims = thin_dims(q)
    fr = framing_data(q, dims)
    m_in = in_matrix(q, dims, fr)
    x = np.array([10.0, 20.0, 30.0])
    assert np.allclose(m_in @ x, [10, 20, 10, 20, 30])
    m_out = out_matrix(q, dims, fr)
    y = np.array([1.0, 2.0, 3.0, 4.0])  # (v slots for t1,t2 ; w slots for t1,t2)
    assert np.allclose(m_out @ y, [1 + 3, 2 + 4])


@pytest.mark.parametrize("quiver", [quiver_d4tilde, quiver_a3, lambda: single_vertex_net(3, 2).quiver])
@pytest.mark.parametrize("dim", [1, 2])
def test_out_matrix_sums_each_out_slot_into_its_sink(quiver, dim):
    """On the README fixtures, out_matrix carries each framing-out slot of q's
    own framing, in hidden-vertex and slot order, onto its sink's block by
    the identity."""
    q = quiver()
    dims = {v: dim for v in q.vertices}
    fr = framing_data(q, dims)
    sink_row = dict(zip(q.sinks, np.cumsum([0] + [dims[v] for v in q.sinks]).tolist()))
    want = np.zeros((sum(dims[v] for v in q.sinks), sum(fr.w.values())))
    c = 0
    for i in q.hidden:
        for a, d in fr.out_slots[i]:
            want[sink_row[a.target] : sink_row[a.target] + d, c : c + d] = np.eye(d)
            c += d
    assert np.array_equal(out_matrix(q, dims, fr), want)


def d4_network_matrix_closed_form(a, b, c, d, lam, v, w, phi, psi):
    v, w = np.asarray(v, float), np.asarray(w, float)
    phi, psi = np.asarray(phi, float), np.asarray(psi, float)
    m = np.zeros((2, 3))
    for r in range(2):
        m[r, 0] = a * c * v[r] * phi[0] + b * c * v[r] * psi[0] + a * d * w[r] * phi[0] + b * d * w[r] * psi[0]
        m[r, 1] = a * c * v[r] * phi[1] + b * c * v[r] * psi[1] + a * d * w[r] * phi[1] + b * d * w[r] * psi[1]
        m[r, 2] = lam * w[r]
    return m


@pytest.mark.parametrize("seed", range(20))
def test_network_matrix_matches_closed_form(seed):
    rng = np.random.default_rng(seed)
    params = (
        *rng.standard_normal(5),
        rng.standard_normal(2),
        rng.standard_normal(2),
        rng.standard_normal(2),
        rng.standard_normal(2),
    )
    t = d4tilde_triple(*params)
    n = network_matrix(t)
    assert np.allclose(n, d4_network_matrix_closed_form(*params), atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_network_matrix_gauge_invariant(seed):
    q = quiver_d4tilde()
    dims = {v: 2 if v == "v3" else 1 for v in q.vertices}
    rng = np.random.default_rng(seed)
    t = random_triple(q, dims, rng)
    g = random_gauge(q, dims, rng)
    assert np.allclose(network_matrix(t), network_matrix(act(g, t)), atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_network_matrix_equals_linear_forward_nonthin(seed):
    """The sweep equals the path form out @ assembled @ in on non-thin dims."""
    q = quiver_d4tilde()
    rng = np.random.default_rng(seed)
    dims = {v: int(rng.integers(1, 4)) for v in q.vertices}
    t = split(random_representation(q, dims, rng))
    assert np.allclose(network_matrix(t), path_network_matrix(t), atol=1e-10)


@st.composite
def dag_representations(draw):
    """Representations on a random DAG, hidden dims 0-3 and framing dims 1-2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = random_dag_quiver(rng, n_hidden=draw(st.integers(1, 6)))
    hidden = set(q.hidden)
    dims = {v: draw(st.integers(0, 3) if v in hidden else st.integers(1, 2)) for v in q.vertices}
    return random_representation(q, dims, rng)


@settings(max_examples=200, deadline=None)
@given(dag_representations())
def test_linear_map_equals_path_coordinates(r):
    """One sweep gives the paper's out @ assembled @ in, on quivers with no
    vertex that is both a source and a sink."""
    t = split(r)
    want = path_network_matrix(t)
    assert rel_err(linear_map(r), want) <= 1e-10
    assert rel_err(network_matrix(t), want) <= 1e-10


def test_network_matrix_past_the_path_cap():
    """4-16^5-2 has more hidden paths than the cap; the sweep reads none, and
    equals the product of the layer matrices."""
    widths = [4, 16, 16, 16, 16, 16, 2]
    q = layered_quiver(widths)
    t = random_triple(q, {v: 1 for v in q.vertices}, np.random.default_rng(0))
    w = join(t).matrices
    product = np.eye(widths[0])
    for k, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        layer = np.array([[w[f"L{k}_{s}>L{k + 1}_{j}"][0, 0] for s in range(n_in)] for j in range(n_out)])
        product = layer @ product
    assert rel_err(network_matrix(t), product) <= 1e-10
    assert rel_err(psi_hat(project(t)), product.sum(axis=1)) <= 1e-10
    with pytest.raises(PathExplosion):
        project(t).assembled()


def test_knowledge_map_identity_only_rescales_input_arrows():
    rng = np.random.default_rng(0)
    net = d4tilde_net(rng=rng, activation="identity")
    x = np.array([2.0, 3.0, 5.0])
    k = knowledge_map(net, x)
    w = net.weights.weights
    assert k.weights["phi1"] == pytest.approx(w["phi1"] * 2.0)
    assert k.weights["lam"] == pytest.approx(w["lam"] * 5.0)
    for aid in ("a", "b", "c", "d", "v_1", "v_2", "w_1", "w_2"):
        assert k.weights[aid] == pytest.approx(w[aid])


def test_knowledge_map_relu_kills_negative_branches():
    net = single_vertex_net(3.0, 2.0, activation="relu")
    k = knowledge_map(net, [-1.0])
    assert k.weights["f"] == pytest.approx(-3.0)
    assert k.weights["h"] == 0.0


def test_knowledge_map_singular_preactivation():
    q = quiver_a3()
    qn = Quiver(q.vertices, q.arrows, network=True)
    net = NeuralNetwork(ThinRep(qn, {"ij": 0.0, "jk": 1.0}), {"j": "identity"})
    with pytest.raises(SingularPreActivation) as err:
        knowledge_map(net, [1.0])
    assert err.value.vertex == "j"


@pytest.mark.parametrize("activation", ["identity", "tanh", "relu"])
def test_factorization_through_knowledge_map(activation):
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 25:
        net = d4tilde_net(rng=rng, activation=activation)
        x = rng.standard_normal(3)
        try:
            k = knowledge_map(net, x)
        except SingularPreActivation:
            continue
        checked += 1
        out, _ = forward(net, x)
        assert np.allclose(out, psi_hat(k), rtol=1e-9, atol=1e-12)


def test_psi_hat_unit_d4tilde():
    assert np.allclose(psi_hat(unit(quiver_d4tilde())), [9.0, 9.0])


@pytest.mark.parametrize("seed", range(10))
def test_psi_hat_point_and_rep_agree(seed):
    rng = np.random.default_rng(seed)
    q = quiver_d4tilde()
    w = ThinRep(q, {a.id: float(rng.standard_normal()) for a in q.arrows})
    paths = path_network_matrix(w.to_triple()).sum(axis=1)
    assert np.allclose(psi_hat(w), psi_hat(project(w.to_triple())), atol=1e-10)
    assert np.allclose(psi_hat(w), paths, atol=1e-10)


def test_psi_hat_isolated_vertex():
    """A vertex that is both a source and a sink passes its input through, on
    both entry points."""
    q = Quiver(["s", "v", "t", "x"], [("f", "s", "v"), ("h", "v", "t")])
    thin = ThinRep(q, {"f": 2.0, "h": 3.0})
    assert psi_hat(thin).tolist() == psi_hat(project(thin.to_triple())).tolist() == [6.0, 1.0]


def test_psi_hat_parallel_and_source_sink_arrows():
    """The sweep needs no framing split: parallel arrows add, and a
    source->sink arrow is a path of its own."""
    q = Quiver(
        ["s1", "s2", "v", "t1", "t2"],
        [("a", "s1", "v"), ("b", "s1", "v"), ("c", "v", "t1"), ("d", "s2", "t1"), ("e", "s1", "t2")],
    )
    k = ThinRep(q, {"a": 2.0, "b": 3.0, "c": 5.0, "d": 7.0, "e": 11.0})
    assert psi_hat(k).tolist() == [2.0 * 5.0 + 3.0 * 5.0 + 7.0, 11.0]


def test_psi_hat_zero_rep():
    q = quiver_d4tilde()
    z = ThinRep(q, {a.id: 0.0 for a in q.arrows})
    assert np.allclose(psi_hat(z), 0.0)


def test_functorial_invariance_of_network_function():
    """Gauge moves fixing the boundary leave the realized function unchanged:
    arbitrary nonzero scalars for identity activations, positive for relu."""
    rng = np.random.default_rng(9)
    for activation, positive in (("identity", False), ("relu", True)):
        net = d4tilde_net(rng=rng, activation=activation)
        q = net.quiver
        gauge = random_gauge(q, thin_dims(q), rng, positive=positive)
        hid = set(q.hidden)

        def moved_weight(a):
            gs = float(gauge[a.source][0, 0]) if a.source in hid else 1.0
            gt = float(gauge[a.target][0, 0]) if a.target in hid else 1.0
            return gt * net.weights.weights[a.id] / gs

        net2 = NeuralNetwork(
            ThinRep(q, {a.id: moved_weight(a) for a in q.arrows}),
            dict(net.activations),
            net.bias,
        )
        for _ in range(20):
            x = rng.standard_normal(3)
            o1, _ = forward(net, x)
            o2, _ = forward(net2, x)
            assert np.allclose(o1, o2, atol=1e-10)
            try:
                k1 = knowledge_map(net, x)
                k2 = knowledge_map(net2, x)
            except SingularPreActivation:
                continue
            p1 = project(k1.to_triple()).assembled()
            p2 = project(k2.to_triple()).assembled()
            assert np.allclose(p1, p2, atol=1e-9)


def test_forward_trace_consistency():
    rng = np.random.default_rng(3)
    net = random_mlp_net(rng, activation="sigmoid")
    x = rng.standard_normal(len(net.input_vertices))
    out, trace = forward(net, x)
    from qmn.network import ACTIVATIONS

    for v in net.quiver.hidden:
        act_fn = ACTIVATIONS[net.activations[v]].fn
        assert trace.values[v] == pytest.approx(act_fn(trace.pre[v]))
    for v in net.bias:
        assert trace.values[v] == 1.0


def test_sigmoid_saturates_without_overflow():
    sig = ACTIVATIONS["sigmoid"]
    z = np.array([-1000.0, -800.0, 0.0, 800.0, 1000.0])
    assert np.array_equal(sig.fn(z), [0.0, 0.0, 0.5, 1.0, 1.0])
    assert np.array_equal(sig.dfn(z), [0.0, 0.0, 0.25, 0.0, 0.0])
    assert sig.fn(-1000.0) == 0.0 and sig.dfn(-800.0) == 0.0
    net = single_vertex_net(1.0, 2.0, activation="sigmoid")
    for x, want in ((-1000.0, 0.0), (1000.0, 2.0)):
        out, trace = forward(net, [x])
        assert abs(out[0] - want) <= 1e-12
        assert trace.pre["v"] == x


def test_network_is_frozen_after_first_forward():
    acts = {"v": "relu"}
    net = NeuralNetwork(single_vertex_net(1.0, 1.0).weights, acts)
    assert forward(net, [-1.0])[0].tolist() == [0.0]
    acts["v"] = "identity"
    with pytest.raises(TypeError):
        net.activations["v"] = "identity"
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.bias = frozenset({"s"})
    assert net.activations == {"v": "relu"}
    assert forward(net, [-1.0])[0].tolist() == [0.0]
