"""Seeded input generator.

Every input is a pure function of (workload, seed, item index).  Files are
written in the formats of the package README -- quivers and representations
as JSON, training data as CSV -- and the benchmark reads them back through
`qmn.io`, so the library only ever sees generated files.  Next to each file
the generator returns the raw arrays it drew: the correctness gates use them
as their independent reference.

This module uses numpy and the standard library only; it never imports qmn.
"""

import csv
import json

import numpy as np

# Layer widths: sources, hidden layers..., sinks.
DEEP_WIDTHS = (8, 8, 8, 8, 4)
RELU_WIDTHS = (8, 16, 16, 4)
MLP_WIDTHS = (16, 32, 32, 4)
MLP_SAMPLES = 64
PROBE_SAMPLES = 16

# moduli-dense: one random DAG, drawn once.  Per-op cost depends on the
# shape (path count, block sizes), so a shape drawn from --seed would spread
# latency by about 3x between seeds; the seed draws weights and gauges only.
DENSE_STRUCTURE_SEED = 0
DENSE_HIDDEN = 8
DENSE_MAX_FRAME = 3
DENSE_EDGE_PROB = 0.5
DENSE_HIDDEN_DIM = 4
DENSE_FRAMED_DIM = 2

STREAMS = {"moduli-deep": 1, "moduli-dense": 2, "train-mlp": 3, "relu-balance": 4}
# sub-streams inside a workload
ITEM, GAUGE, PROBE, TEACHER, STUDENT, DATA = range(6)


def rng_for(workload, seed, sub, k=0):
    return np.random.default_rng([int(seed), STREAMS[workload], sub, int(k)])


# --- layered quivers and their own numpy semantics ---------------------------


def layer_names(widths):
    return [[f"v{k}_{i}" for i in range(w)] for k, w in enumerate(widths)]


def layered_arrows(widths):
    """Arrow ids per layer pair, source-major, so the framing slots of every
    vertex follow source order."""
    names = layer_names(widths)
    return [
        (f"a{k}_{i}_{j}", names[k][i], names[k + 1][j])
        for k in range(len(widths) - 1)
        for i in range(widths[k])
        for j in range(widths[k + 1])
    ]


def layered_quiver_json(widths, bias=False):
    names = layer_names(widths)
    vertices = [v for layer in names for v in layer]
    arrows = layered_arrows(widths)
    roles = {}
    if bias:
        for k in range(1, len(widths) - 1):
            b = f"b{k}"
            vertices.append(b)
            roles[b] = "bias"
            arrows += [(f"c{k}_{j}", b, names[k][j]) for j in range(widths[k])]
    out = {
        "vertices": vertices,
        "arrows": [{"id": a, "from": s, "to": t} for a, s, t in arrows],
    }
    if roles:
        out["roles"] = roles
    return out


def layer_matrices(weights, widths):
    """W_k with W_k[j, i] = weight of the arrow from vertex i of layer k to
    vertex j of layer k+1."""
    mats = []
    for k in range(len(widths) - 1):
        m = np.empty((widths[k + 1], widths[k]))
        for i in range(widths[k]):
            for j in range(widths[k + 1]):
                m[j, i] = weights[f"a{k}_{i}_{j}"]
        mats.append(m)
    return mats


def bias_vectors(weights, widths):
    return [
        np.array([weights[f"c{k}_{j}"] for j in range(widths[k])])
        for k in range(1, len(widths) - 1)
    ]


def layered_forward(weights, widths, x, activation="identity", bias=False):
    """Network function of a layered thin network, batch along axis 0."""
    act = {"identity": lambda z: z, "tanh": np.tanh, "relu": lambda z: np.maximum(z, 0.0)}[activation]
    mats = layer_matrices(weights, widths)
    bs = bias_vectors(weights, widths) if bias else [0.0] * (len(mats) - 1)
    a = np.atleast_2d(np.asarray(x, dtype=float))
    for k, m in enumerate(mats):
        z = a @ m.T
        a = act(z + bs[k]) if k < len(mats) - 1 else z
    return a


def linear_map(weights, widths):
    """Input-to-output matrix of the activation-free layered network."""
    out = np.eye(widths[0])
    for m in layer_matrices(weights, widths):
        out = m @ out
    return out


# --- writers -----------------------------------------------------------------


def write_json(path, obj):
    if path is None:
        return
    with open(path, "w") as fh:
        json.dump(obj, fh)


def thin_rep_json(quiver_json, weights):
    return {"dims": {v: 1 for v in quiver_json["vertices"]}, "weights": weights}


def quiver_json(workload):
    """Quiver of a workload that draws one triple per op."""
    if workload == "moduli-deep":
        return layered_quiver_json(DEEP_WIDTHS)
    if workload == "relu-balance":
        return layered_quiver_json(RELU_WIDTHS)
    if workload == "moduli-dense":
        return dense_quiver_json()
    raise ValueError(f"workload {workload!r} has no per-op items")


def write_inputs(workload, seed, d):
    """Write everything set-up reads: the fixed files of the run and, for the
    per-op workloads, the input of op 0."""
    d.mkdir(parents=True, exist_ok=True)
    if workload == "train-mlp":
        mlp_files(seed, d)
        return
    qj = quiver_json(workload)
    write_json(d / "quiver.json", qj)
    item(workload, seed, 0, qj, d / "item0.json")


def item(workload, seed, k, quiver_json, path=None):
    """Write op input k to `path` (unless None); returns the reference data
    for its gate."""
    rng = rng_for(workload, seed, ITEM, k)
    arrows = [a["id"] for a in quiver_json["arrows"]]
    if workload == "moduli-deep":
        weights = {a: float(rng.standard_normal()) for a in arrows}
        write_json(path, thin_rep_json(quiver_json, weights))
        return {"weights": weights, "linear_map": linear_map(weights, DEEP_WIDTHS)}
    if workload == "relu-balance":
        weights = {a: float(rng.uniform(0.5, 2.0)) for a in arrows}
        write_json(path, thin_rep_json(quiver_json, weights))
        return {"weights": weights, "inputs": rng.standard_normal((PROBE_SAMPLES, RELU_WIDTHS[0]))}
    if workload == "moduli-dense":
        dims = dense_dims(quiver_json)
        weights = {
            a["id"]: rng.standard_normal((dims[a["to"]], dims[a["from"]])).tolist()
            for a in quiver_json["arrows"]
        }
        write_json(path, {"dims": dims, "weights": weights})
        grng = rng_for(workload, seed, GAUGE, k)
        gauge = {v: conditioned_gauge(grng, dims[v]) for v in dense_hidden(quiver_json)}
        return {"weights": weights, "gauge": gauge}
    raise ValueError(f"workload {workload!r} has no per-op items")


def conditioned_gauge(rng, d):
    """Orthogonal times positive diagonal: condition number at most e^1.4."""
    qm, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return qm @ np.diag(np.exp(rng.uniform(-0.7, 0.7, d)))


# --- moduli-dense quiver -----------------------------------------------------


def dense_quiver_json():
    """Random acyclic quiver: a DAG on the hidden vertices plus enough source
    and sink arrows that every hidden vertex really is hidden."""
    rng = np.random.default_rng(DENSE_STRUCTURE_SEED)
    n = DENSE_HIDDEN
    hidden = [f"h{i}" for i in range(n)]
    arrows = [
        (f"e{i}_{j}", hidden[i], hidden[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < DENSE_EDGE_PROB
    ]
    has_in = {t for _, _, t in arrows}
    has_out = {s for _, s, _ in arrows}
    sources, sinks = [], []
    for i, v in enumerate(hidden):
        for k in range(int(rng.integers(0 if v in has_in else 1, DENSE_MAX_FRAME + 1))):
            sources.append(f"src{i}_{k}")
            arrows.append((f"in{i}_{k}", f"src{i}_{k}", v))
        for k in range(int(rng.integers(0 if v in has_out else 1, DENSE_MAX_FRAME + 1))):
            sinks.append(f"snk{i}_{k}")
            arrows.append((f"out{i}_{k}", v, f"snk{i}_{k}"))
    return {
        "vertices": sources + hidden + sinks,
        "arrows": [{"id": a, "from": s, "to": t} for a, s, t in arrows],
    }


def dense_hidden(quiver_json):
    return [v for v in quiver_json["vertices"] if v.startswith("h")]


def dense_dims(quiver_json):
    hidden = set(dense_hidden(quiver_json))
    return {v: DENSE_HIDDEN_DIM if v in hidden else DENSE_FRAMED_DIM for v in quiver_json["vertices"]}


# --- train-mlp ---------------------------------------------------------------


def init_weights(rng, quiver_json, widths, scale=1.0):
    """N(0, scale^2 / fan_in), fan_in counting the bias vertex."""
    fan_in = {}
    for k in range(1, len(widths)):
        fan_in[k] = widths[k - 1] + (1 if k < len(widths) - 1 else 0)
    weights = {}
    for a in quiver_json["arrows"]:
        layer = int(a["to"].split("_")[0][1:])
        weights[a["id"]] = float(rng.standard_normal() * scale / np.sqrt(fan_in[layer]))
    return weights


def mlp_files(seed, d):
    """Student network (README network format) and a CSV of samples labelled
    by a teacher network of the same shape, so the loss can go down."""
    qj = layered_quiver_json(MLP_WIDTHS, bias=True)
    student = init_weights(rng_for("train-mlp", seed, STUDENT), qj, MLP_WIDTHS)
    teacher = init_weights(rng_for("train-mlp", seed, TEACHER), qj, MLP_WIDTHS, scale=1.5)
    x = rng_for("train-mlp", seed, DATA).standard_normal((MLP_SAMPLES, MLP_WIDTHS[0]))
    y = layered_forward(teacher, MLP_WIDTHS, x, activation="tanh", bias=True)
    hidden = [v for layer in layer_names(MLP_WIDTHS)[1:-1] for v in layer]
    net = {
        "quiver": qj,
        "dims": {v: 1 for v in qj["vertices"]},
        "weights": student,
        "activations": {v: "tanh" for v in hidden},
        "bias": sorted(qj["roles"]),
    }
    write_json(d / "net.json", net)
    with open(d / "data.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for xi, yi in zip(x, y):
            writer.writerow([repr(float(v)) for v in np.concatenate([xi, yi])])
    return {"net": d / "net.json", "data": d / "data.csv"}
