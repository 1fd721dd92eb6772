import contextlib
import copy
import io as stdio
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import layered_quiver
from hypothesis import given, settings, strategies as st

from qmn import grad, io, linalg, moduli, network, relu, thincat
from qmn.cli import build_parser, main
from qmn.examples import quiver_a3, quiver_d4tilde, quiver_single_vertex, single_vertex_net
from qmn.quiver import Quiver
from qmn.thincat import ThinRep, unit


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def a3_files(tmp_path):
    q = quiver_a3()
    qpath = write_json(tmp_path, "a3.json", io.quiver_to_json(q))
    rep = {"quiver": io.quiver_to_json(q), "dims": {v: 1 for v in q.vertices}, "weights": {"ij": 2.0, "jk": 3.0}}
    rpath = write_json(tmp_path, "rep.json", rep)
    return qpath, rpath


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate(capsys, a3_files):
    qpath, _ = a3_files
    code, out = run(capsys, "--format", "json", "validate", "--quiver", qpath)
    assert code == 0
    payload = json.loads(out)
    assert payload["hidden"] == ["j"]


@pytest.mark.parametrize("flag", ["no", 1, None])
@pytest.mark.parametrize("parallel", [False, True])
def test_validate_rejects_non_boolean_network(capsys, tmp_path, flag, parallel):
    """Only a JSON boolean is read as the `network` flag, with or without
    parallel arrows; "no" was read as true."""
    arrows = [{"id": "a", "from": "s", "to": "t"}]
    if parallel:
        arrows.append({"id": "b", "from": "s", "to": "t"})
    qpath = write_json(tmp_path, "q.json", {"vertices": ["s", "t"], "arrows": arrows, "network": flag})
    assert "'network' is not a boolean" in run_invalid(capsys, "validate", "--quiver", qpath)


def test_moduli_dim_a3(capsys, a3_files):
    qpath, _ = a3_files
    code, out = run(capsys, "--format", "json", "moduli", "dim", "--quiver", qpath)
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_moduli_coords_and_rank(capsys, a3_files):
    qpath, rpath = a3_files
    code, out = run(capsys, "--format", "json", "moduli", "coords", "--rep", rpath, "--assembled")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[6.0]]
    code, out = run(capsys, "--format", "json", "moduli", "rank", "--rep", rpath)
    assert json.loads(out)["rank"] == {"j": 1}


def test_moduli_simple_exists(capsys, a3_files):
    qpath, _ = a3_files
    code, out = run(capsys, "--format", "json", "moduli", "simple-exists", "--quiver", qpath)
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] and payload["single_cycle"]


def test_thin_commands(capsys, tmp_path):
    q = quiver_d4tilde()
    a = write_json(tmp_path, "a.json", io.thin_to_json(unit(q)))
    b = write_json(
        tmp_path, "b.json", io.thin_to_json(ThinRep(q, {ar.id: 2.0 for ar in q.arrows}))
    )
    code, out = run(capsys, "--format", "json", "thin", "tensor", a, b)
    assert code == 0
    assert all(v == 2.0 for v in json.loads(out)["weights"].values())
    code, out = run(capsys, "--format", "json", "thin", "invertible", b)
    assert json.loads(out)["invertible"] is True
    code, out = run(capsys, "--format", "json", "thin", "morphism", a, a)
    assert json.loads(out)["invertible"] is True


def test_tol_defaults_are_the_library_constants():
    """Each `--tol` default is the library constant that the function it
    feeds takes by default, so the two cannot drift apart."""
    parse = build_parser().parse_args
    assert parse(["moduli", "rank", "--rep", "r"]).tol == linalg.RANK_TOL
    assert parse(["relu", "balance", "--rep", "r", "--target", "0"]).tol == relu.LEVEL_TOL
    assert parse(["thin", "morphism", "a", "b"]).tol == thincat.MORPHISM_TOL
    for f in (thincat.check_morphism, thincat.solve_morphism):
        assert f.__defaults__ == (thincat.MORPHISM_TOL,)
    assert relu.balance.__defaults__ == (relu.LEVEL_TOL,)
    assert moduli.ModuliPoint.rank_vector.__defaults__ == (linalg.RANK_TOL,)


def test_thin_morphism_propagates_backward(capsys, tmp_path):
    q = quiver_single_vertex()
    a = write_json(tmp_path, "a.json", io.thin_to_json(ThinRep(q, {"f": 0.0, "h": 2.0})))
    b = write_json(tmp_path, "b.json", io.thin_to_json(ThinRep(q, {"f": 0.0, "h": 1.0})))
    code, out = run(capsys, "--format", "json", "thin", "morphism", a, b)
    assert code == 0
    payload = json.loads(out)
    assert payload["invertible"] is True and payload["morphism"]["v"] == 2.0


def test_net_eval_and_knowledge(capsys, tmp_path):
    net = single_vertex_net(3.0, 2.0, activation="relu")
    npath = write_json(tmp_path, "net.json", io.network_to_json(net))
    code, out = run(capsys, "--format", "json", "net", "eval", "--net", npath, "--input", "2.0")
    assert code == 0
    assert json.loads(out)["output"] == [12.0]
    kpath = str(tmp_path / "k.json")
    code, out = run(
        capsys, "--format", "json", "net", "knowledge", "--net", npath, "--input", "2.0", "--out", kpath
    )
    assert code == 0
    emitted = io.thin_from_json(kpath)
    assert emitted.weights["f"] == 6.0
    code, out = run(capsys, "--format", "json", "net", "psihat", "--rep", kpath)
    assert json.loads(out)["psi_hat"] == [12.0]


def test_net_train_and_trace(capsys, tmp_path):
    net = single_vertex_net(1.0, 1.0, activation="identity")
    npath = write_json(tmp_path, "net.json", io.network_to_json(net))
    dpath = tmp_path / "data.csv"
    dpath.write_text("1.0,2.0\n2.0,4.0\n")
    tpath = str(tmp_path / "trace.jsonl")
    opath = str(tmp_path / "trained.json")
    code, out = run(
        capsys,
        "--format",
        "json",
        "net",
        "train",
        "--net",
        npath,
        "--data",
        str(dpath),
        "--loss",
        "mse",
        "--lr",
        "0.05",
        "--epochs",
        "200",
        "--trace-moduli",
        tpath,
        "--out",
        opath,
    )
    assert code == 0
    assert json.loads(out)["final_loss"] < 1e-6
    rows = [json.loads(line) for line in Path(tpath).read_text().splitlines()]
    assert len(rows) == 200 and "coords" in rows[0]
    trained = io.network_from_json(opath)
    w = trained.weights.weights
    assert w["f"] * w["h"] == pytest.approx(2.0, abs=1e-3)


def test_net_gradcheck(capsys, tmp_path):
    net = single_vertex_net(1.2, -0.8, activation="identity")
    npath = write_json(tmp_path, "net.json", io.network_to_json(net))
    code, out = run(
        capsys, "--format", "json", "net", "gradcheck", "--net", npath, "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["max_rel_err"] < 1e-5
    assert main(["net", "gradcheck", "--net", npath, "--literal"]) == 1


def test_relu_momentum_and_balance(capsys, tmp_path):
    net = single_vertex_net(4.0, 1.0)
    rpath = write_json(tmp_path, "rep.json", io.thin_to_json(net.weights))
    code, out = run(capsys, "--format", "json", "relu", "momentum", "--rep", rpath)
    assert code == 0
    assert json.loads(out)["momentum"]["v"] == [[15.0]]
    code, out = run(
        capsys, "--format", "json", "relu", "balance", "--rep", rpath, "--target", "0"
    )
    assert code == 0
    assert json.loads(out)["gauge"]["v"] == pytest.approx(0.5, abs=1e-8)


def test_relu_balance_numeric_failure_exit_code(capsys, tmp_path):
    net = single_vertex_net(1.0, 0.0)
    rpath = write_json(tmp_path, "rep.json", io.thin_to_json(net.weights))
    for target in ("0", "-1"):
        code, _ = run(capsys, "relu", "balance", "--rep", rpath, "--target", target)
        assert code == 3


def test_relu_balance_without_weights(capsys, tmp_path):
    """f = h = 0: no target but 0 is reachable, so --target 1 exits 3 before
    any step, and --target 0 passes with 0 sweeps."""
    rpath = write_json(tmp_path, "rep.json", io.thin_to_json(single_vertex_net(0.0, 0.0).weights))
    code, _, err = run_quietly(["relu", "balance", "--rep", rpath, "--target", "1"])
    assert code == 3 and "no convergence after 0 steps, residual 1.000e+00" in err
    code, out = run(capsys, "--format", "json", "relu", "balance", "--rep", rpath, "--target", "0")
    assert code == 0
    assert json.loads(out) == {"gauge": {"v": 1.0}, "sweeps": 0, "residual": 0.0}


@pytest.mark.parametrize(
    "numbers",
    [["--target", "nan"], ["--target", "inf"], ["--target", "0", "--tol", "-1"], ["--target", "0", "--tol", "nan"]],
    ids=["target-nan", "target-inf", "tol-negative", "tol-nan"],
)
def test_relu_balance_bad_number_is_invalid_input(capsys, tmp_path, numbers):
    rpath = write_json(tmp_path, "rep.json", io.thin_to_json(single_vertex_net(4.0, 1.0).weights))
    code = main(["relu", "balance", "--rep", rpath, *numbers])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("invalid input:")


def test_relu_balance_badly_scaled_weights(capsys, tmp_path):
    """Weights spread over 10^+-4 on 32-128-128-16: balanced to the rounding
    floor, though the residual is above the absolute default tol."""
    q = layered_quiver([32, 128, 128, 16])
    rng = np.random.default_rng(5)
    thin = ThinRep(q, {a.id: 10 ** rng.uniform(-4, 4) for a in q.arrows})
    rpath = write_json(tmp_path, "rep.json", io.thin_to_json(thin))
    code, out = run(capsys, "--format", "json", "relu", "balance", "--rep", rpath, "--target", "0")
    assert code == 0
    payload = json.loads(out)
    assert 1e-8 < payload["residual"] < 1e-6
    assert all(g > 0.0 for g in payload["gauge"].values())


def test_moduli_rank_answers_past_the_path_cap(capsys, tmp_path):
    """Thin 4-16^5-2 has 1,193,040 hidden paths, above the cap: `moduli rank`
    reads only the sweeps and answers, `moduli coords` still refuses."""
    q = layered_quiver([4, 16, 16, 16, 16, 16, 2])
    rng = np.random.default_rng(8)
    thin = ThinRep(q, {a.id: rng.uniform(0.5, 2.0) for a in q.arrows})
    rpath = write_json(tmp_path, "rep.json", io.thin_to_json(thin))
    code, out = run(capsys, "--format", "json", "moduli", "rank", "--rep", rpath)
    assert code == 0
    assert json.loads(out)["rank"] == {v: 1 for v in q.hidden}
    err = run_invalid(capsys, "moduli", "coords", "--rep", rpath)
    assert "hidden path count 1193040 exceeds cap 1000000" in err


def test_moduli_coords_refuses_colliding_block_labels(capsys, tmp_path):
    """Arrow ids with '.' give two paths x -> z the label x>a.b>z: the lazy
    pair a.b and the path a then b.  Printing one of them beside the sum of
    both would drop a block, so the command exits 2 naming the label."""
    q = Quiver(
        ["s", "x", "y", "z", "t"],
        [("in", "s", "x"), ("a", "x", "y"), ("b", "y", "z"), ("a.b", "x", "z"), ("out", "z", "t")],
    )
    weights = {"in": 1.0, "a": 2.0, "b": 3.0, "a.b": 5.0, "out": 1.0}
    rpath = write_json(tmp_path, "rep.json", io.thin_to_json(ThinRep(q, weights)))
    err = run_invalid(capsys, "moduli", "coords", "--rep", rpath, "--assembled")
    assert "'x>a.b>z'" in err


def test_net_train_builds_no_epoch_snapshot_without_trace(capsys, tmp_path, monkeypatch):
    """Without --trace-moduli the trainer builds one network, the trained one
    it returns, not one per epoch."""
    built = []
    snapshot = grad._snapshot

    def counted(net, w):
        built.append(w)
        return snapshot(net, w)

    monkeypatch.setattr(grad, "_snapshot", counted)
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1.0, 1.0)))
    dpath = tmp_path / "data.csv"
    dpath.write_text("1.0,2.0\n2.0,4.0\n")
    code, _ = run(capsys, "net", "train", "--net", npath, "--data", str(dpath), "--epochs", "20")
    assert code == 0
    assert len(built) == 1


def test_net_train_trace_compiles_the_network_once(capsys, tmp_path, monkeypatch):
    """With --trace-moduli every epoch's snapshot network shares the compiled
    structure of the network it came from: one build over the whole run."""
    built = []

    class Counted(network.CompiledNetwork):
        def __init__(self, net):
            built.append(net)
            super().__init__(net)

    monkeypatch.setattr(network, "CompiledNetwork", Counted)
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1.0, 1.0)))
    dpath = tmp_path / "data.csv"
    dpath.write_text("1.0,2.0\n2.0,4.0\n")
    tpath = str(tmp_path / "trace.jsonl")
    code, _ = run(capsys, "net", "train", "--net", npath, "--data", str(dpath), "--epochs", "20", "--trace-moduli", tpath)
    assert code == 0
    assert len(Path(tpath).read_text().splitlines()) == 20
    assert len(built) == 1


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1"])
def test_moduli_rank_bad_tol_is_invalid_input(capsys, a3_files, tol):
    _, rpath = a3_files
    assert "rank tolerance" in run_invalid(capsys, "moduli", "rank", "--rep", rpath, "--tol", tol)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_thin_morphism_bad_tol_is_invalid_input(capsys, tmp_path, tol):
    a = write_json(tmp_path, "a.json", io.thin_to_json(unit(quiver_d4tilde())))
    assert "morphism tolerance" in run_invalid(capsys, "thin", "morphism", a, a, "--tol", tol)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_net_gradcheck_bad_tol_is_invalid_input(capsys, tmp_path, tol):
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1.2, -0.8)))
    assert "--tol" in run_invalid(capsys, "net", "gradcheck", "--net", npath, "--tol", tol)


@pytest.mark.parametrize(
    "numbers,named",
    [(["--epochs", "-1"], "epochs"), (["--lr", "nan"], "learning rate"),
     (["--lr", "inf"], "learning rate"), (["--lr", "-0.1"], "learning rate")],
    ids=["epochs-negative", "lr-nan", "lr-inf", "lr-negative"],
)
def test_net_train_bad_number_is_invalid_input(capsys, tmp_path, numbers, named):
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1.0, 1.0)))
    dpath = tmp_path / "data.csv"
    dpath.write_text("1.0,2.0\n")
    assert named in run_invalid(capsys, "net", "train", "--net", npath, "--data", str(dpath), *numbers)


README_QUIVER = {
    "vertices": ["s", "v", "t"],
    "arrows": [{"id": "f", "from": "s", "to": "v"}, {"id": "h", "from": "v", "to": "t"}],
    "roles": {"s": "input", "t": "output"},
}


@pytest.mark.parametrize(
    "payload",
    [[README_QUIVER], {**README_QUIVER, "arrows": [["f", "s", "v"], ["h", "v", "t"]]},
     {**README_QUIVER, "vertices": "svt"}],
    ids=["top-level-list", "arrow-list", "vertices-string"],
)
def test_malformed_quiver_file_is_invalid_input(capsys, tmp_path, payload):
    qpath = write_json(tmp_path, "q.json", payload)
    assert "malformed quiver file" in run_invalid(capsys, "validate", "--quiver", qpath)


@pytest.mark.parametrize(
    "kind,argv",
    [("representation", ["moduli", "coords", "--rep"]), ("network", ["net", "eval", "--input", "1", "--net"])],
    ids=["representation", "network"],
)
def test_embedded_quiver_path_is_not_opened(capsys, tmp_path, monkeypatch, kind, argv):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "q.json", README_QUIVER)
    doc = {"quiver": "q.json", "dims": {"s": 1, "v": 1, "t": 1}, "weights": {"f": 2.0, "h": 3.0}}
    path = write_json(tmp_path, "doc.json", doc)
    err = run_invalid(capsys, *argv, path)
    assert f"malformed {kind} file: embedded quiver is not a mapping" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moduli", "coords", "--rep"],
        ["moduli", "rank", "--rep"],
        ["thin", "invertible"],
        ["net", "psihat", "--rep"],
        ["relu", "momentum", "--rep"],
        ["relu", "balance", "--target", "0", "--rep"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith("-") and a != "0"),
)
def test_boolean_dimension_is_invalid_input(capsys, tmp_path, argv):
    """JSON `true` is no dimension, though Python's bool is an int."""
    doc = {"quiver": README_QUIVER, "dims": {"s": 1, "v": True, "t": 1}, "weights": {"f": 2.0, "h": 3.0}}
    path = write_json(tmp_path, "rep.json", doc)
    assert "dimension of vertex 'v' is True, not an integer" in run_invalid(capsys, *argv, path)


REP_DIMS = {"s": 1, "v": 1, "t": 1}
NET_DOC = io.network_to_json(single_vertex_net(2.0, 3.0))


@pytest.mark.parametrize(
    "argv, doc, arrow",
    [
        (
            ["moduli", "coords", "--rep"],
            {"quiver": README_QUIVER, "dims": REP_DIMS, "weights": {"f": True, "h": 3.0}},
            "f",
        ),
        (
            ["moduli", "coords", "--rep"],
            {"quiver": README_QUIVER, "dims": {**REP_DIMS, "s": 2}, "weights": {"f": [[1.0, False]], "h": 3.0}},
            "f",
        ),
        (["net", "eval", "--input", "1", "--net"], {**NET_DOC, "weights": {"f": 2.0, "h": [[False]]}}, "h"),
    ],
    ids=["rep-scalar", "rep-nested", "net-nested"],
)
def test_boolean_weight_is_invalid_input(capsys, tmp_path, argv, doc, arrow):
    """JSON `true` and `false` are no weights, at any depth of a weight,
    though numpy reads them as 1.0 and 0.0."""
    path = write_json(tmp_path, "doc.json", doc)
    assert f"weight of arrow {arrow!r} holds a boolean" in run_invalid(capsys, *argv, path)


@pytest.mark.parametrize(
    "argv, doc, arrow, leaf",
    [
        (
            ["--format", "json", "moduli", "coords", "--rep"],
            {"quiver": README_QUIVER, "dims": REP_DIMS, "weights": {"f": "2.5", "h": [["3"]]}},
            "f",
            "'2.5'",
        ),
        (["net", "eval", "--input", "1", "--net"], {**NET_DOC, "weights": {"f": 2.0, "h": [["3"]]}}, "h", "'3'"),
        (["net", "eval", "--input", "1", "--net"], {**NET_DOC, "weights": {"f": [[None]], "h": 3.0}}, "f", "None"),
    ],
    ids=["rep-string", "net-nested-string", "net-null"],
)
def test_non_number_weight_is_invalid_input(capsys, tmp_path, argv, doc, arrow, leaf):
    """Every leaf of a weight is a JSON number: numpy would read the string
    "2.5" as 2.5, and no weight is read from a string or a null."""
    path = write_json(tmp_path, "doc.json", doc)
    assert f"weight of arrow {arrow!r} holds {leaf}, not a number" in run_invalid(capsys, *argv, path)


FUZZ_DOCS = [
    README_QUIVER,
    {"quiver": README_QUIVER, "dims": {"s": 1, "v": 1, "t": 1}, "weights": {"f": [[2.0]], "h": 3.0}},
    io.network_to_json(single_vertex_net(2.0, 3.0)),
]
FUZZ_VALUES = ["x", 2.5, 7, -1, 1e200, True, None, [], {}, ["x"], {"x": 1}]
FUZZ_COMMANDS = [
    ["validate", "--quiver"],
    ["moduli", "coords", "--rep"],
    ["moduli", "rank", "--rep"],
    ["moduli", "dim", "--quiver"],
    ["moduli", "simple-exists", "--quiver"],
    ["thin", "invertible"],
    ["net", "eval", "--input", "1", "--net"],
    ["net", "knowledge", "--input", "1", "--net"],
    ["net", "psihat", "--rep"],
    ["net", "gradcheck", "--net"],
    ["relu", "momentum", "--rep"],
    ["relu", "balance", "--target", "0", "--rep"],
]


def json_nodes(doc, path=()):
    """Paths to every node of a JSON document, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from json_nodes(child, path + (key,))


@st.composite
def mutated_docs(draw):
    """A README-format quiver, representation or network file with one node
    dropped, replaced by a value of another type, or replaced by NaN."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCS)))
    path = draw(st.sampled_from(list(json_nodes(doc))))
    action = draw(st.sampled_from(["drop", "swap", "nan"]))
    value = draw(st.sampled_from(FUZZ_VALUES)) if action == "swap" else math.nan
    if not path:
        return {} if action == "drop" else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_quietly(argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def strict_json(text):
    """Parse JSON output, refusing the NaN and Infinity extensions."""

    def refuse(constant):
        raise ValueError(f"{constant} in JSON output")

    return json.loads(text, parse_constant=refuse)


def check_fuzzed_run(argv):
    """Exit 0, 2 or 3 without a traceback, and on success strict JSON."""
    code, out, err = run_quietly(["--format", "json", *argv])
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code == 0:
        strict_json(out)


@settings(max_examples=100, deadline=None)
@given(mutated_docs())
def test_cli_fuzz_malformed_files(doc):
    """Every command either works or reports the bad input; none crashes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for argv in FUZZ_COMMANDS:
            code, _, err = run_quietly([*argv, str(path)])
            assert code in (0, 2, 3), (argv, doc, err)
            assert "Traceback" not in err


@settings(max_examples=100, deadline=None)
@given(
    st.integers().map(lambda n: ["example", "d4tilde", "--seed", str(n)])
    | st.tuples(st.floats(), st.floats()).map(
        lambda fh: ["example", "single-vertex-relu", f"--f={fh[0]!r}", f"--h={fh[1]!r}"]
    )
)
def test_cli_fuzz_example_arguments(argv):
    """The recipes take any seed and any float weights (NaN, infinities and
    overflowing products included) and still print strict JSON or refuse."""
    check_fuzzed_run(argv)


FINITE_WEIGHTS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([1e200, -sys.float_info.max])


@settings(max_examples=100, deadline=None)
@given(mutated_docs(), st.lists(FINITE_WEIGHTS, min_size=2, max_size=2))
def test_cli_fuzz_two_file_thin_commands(doc, weights):
    """`thin tensor` and `thin morphism` on a mutated file and a valid thin
    file with any finite weights, in both orders; the largest ones overflow
    a tensor product."""
    valid = {"quiver": README_QUIVER, "dims": {"s": 1, "v": 1, "t": 1}, "weights": dict(zip("fh", weights))}
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "mutated.json", Path(tmp) / "valid.json"]
        paths[0].write_text(json.dumps(doc))
        paths[1].write_text(json.dumps(valid))
        for verb in ("tensor", "morphism"):
            for a, b in (paths, paths[::-1]):
                check_fuzzed_run(["thin", verb, str(a), str(b)])


FUZZ_CELLS = ["", " ", "x", "nan", "-nan", "inf", "-inf", "1e400", "1e300", "0x1", "1_0", '"1"', "'1'"]


@st.composite
def mutated_csv(draw):
    """A `net train` data file for a one-input, one-output network with one
    row mutated: a cell replaced, a column dropped or added, or the row blank."""
    rows = [["1.0", "2.0"], ["2.0", "4.0"], ["-1.5", "-3.0"]]
    cell = st.sampled_from(FUZZ_CELLS) | st.text(alphabet='0123456789.,-+eE "nafix\t\x00', max_size=5)
    row = rows[draw(st.integers(0, len(rows) - 1))]
    action = draw(st.sampled_from(["replace", "drop", "add", "blank"]))
    if action == "replace":
        row[draw(st.integers(0, len(row) - 1))] = draw(cell)
    elif action == "drop":
        del row[draw(st.integers(0, len(row) - 1))]
    elif action == "add":
        row.insert(draw(st.integers(0, len(row))), draw(cell))
    else:
        row.clear()
    return "".join(",".join(r) + "\n" for r in rows)


@settings(max_examples=100, deadline=None)
@given(mutated_csv())
def test_cli_fuzz_malformed_csv(text):
    """`net train` on mutated data either trains or reports the bad input or
    the numeric failure; it never crashes."""
    with tempfile.TemporaryDirectory() as tmp:
        npath = Path(tmp) / "net.json"
        npath.write_text(json.dumps(io.network_to_json(single_vertex_net(1.0, 1.0))))
        dpath = Path(tmp) / "data.csv"
        dpath.write_text(text)
        code, _, err = run_quietly(["net", "train", "--net", str(npath), "--data", str(dpath), "--epochs", "3"])
        assert code in (0, 2, 3), (text, err)
        assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    assert main(["moduli", "unknown-sub"]) == 1
    assert main(["--definitely-not-a-flag"]) == 1


def test_validation_error_exit_code(capsys, tmp_path):
    bad = write_json(
        tmp_path,
        "cyclic.json",
        {"vertices": ["x", "y"], "arrows": [{"id": "a", "from": "x", "to": "y"}, {"id": "b", "from": "y", "to": "x"}]},
    )
    assert main(["validate", "--quiver", bad]) == 2


def test_example_recipes(capsys):
    code, out = run(capsys, "--format", "json", "example", "a3")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1 and payload["simple_exists"]

    code, out = run(capsys, "--format", "json", "example", "single-vertex-relu", "--f", "3", "--h", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["momentum"]["v"] == 5.0

    code, out = run(capsys, "--format", "json", "example", "d4tilde", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 8
    assert payload["rank"] == {f"v{k}": 1 for k in range(1, 6)}


def test_example_deterministic(capsys):
    _, out1 = run(capsys, "--format", "json", "example", "d4tilde", "--seed", "7")
    _, out2 = run(capsys, "--format", "json", "example", "d4tilde", "--seed", "7")
    assert out1 == out2


def test_emitted_files_round_trip(capsys, tmp_path):
    """Everything the CLI writes is re-readable."""
    net = single_vertex_net(2.0, 3.0, activation="tanh")
    npath = write_json(tmp_path, "net.json", io.network_to_json(net))
    kpath = str(tmp_path / "k.json")
    run(capsys, "net", "knowledge", "--net", npath, "--input", "0.5", "--out", kpath)
    reread = io.thin_from_json(kpath)
    assert set(reread.weights) == {"f", "h"}
    back = io.network_from_json(npath)
    assert back.activations == {"v": "tanh"}


def test_table_format_output(capsys, a3_files):
    qpath, _ = a3_files
    code, out = run(capsys, "validate", "--quiver", qpath)
    assert code == 0
    assert "hidden" in out and "j" in out


def test_csv_format_assembled(capsys, a3_files):
    _, rpath = a3_files
    code, out = run(capsys, "--format", "csv", "moduli", "coords", "--rep", rpath, "--assembled")
    assert code == 0
    assert out.strip() == "6.0"


def run_invalid(capsys, *argv):
    """Run the CLI on malformed input; return stderr after checking exit 2."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and "Traceback" not in err
    return err


def test_non_numeric_input_vector_is_invalid_input(capsys, tmp_path):
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(3.0, 2.0)))
    err = run_invalid(capsys, "net", "eval", "--net", npath, "--input", "1,x")
    assert "'x'" in err


def test_non_numeric_csv_cell_names_file_and_row(capsys, tmp_path):
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1.0, 1.0)))
    dpath = tmp_path / "data.csv"
    dpath.write_text("1.0,2.0\n2.0,oops\n")
    err = run_invalid(capsys, "net", "train", "--net", npath, "--data", str(dpath))
    assert f"{dpath}, row 2" in err and "'oops'" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("verb", ["eval", "knowledge"])
def test_non_finite_input_vector_is_invalid_input(capsys, tmp_path, verb, value):
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(3.0, 2.0)))
    err = run_invalid(capsys, "net", verb, "--net", npath, "--input", f"1,{value}")
    assert "must be finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_csv_cell_names_file_and_row(capsys, tmp_path, value):
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1.0, 1.0)))
    dpath = tmp_path / "data.csv"
    dpath.write_text(f"1.0,2.0\n2.0,4.0\n{value},1.0\n")
    err = run_invalid(capsys, "net", "train", "--net", npath, "--data", str(dpath))
    assert f"{dpath}, row 3" in err and "must be finite" in err


@pytest.mark.parametrize("missing", ["dims", "weights"])
def test_rep_file_without_key_is_invalid_input(capsys, a3_files, tmp_path, missing):
    _, rpath = a3_files
    rep = json.loads(Path(rpath).read_text())
    del rep[missing]
    bad = write_json(tmp_path, "bad.json", rep)
    err = run_invalid(capsys, "moduli", "coords", "--rep", bad)
    assert missing in err


def test_rep_directory_is_invalid_input(capsys, tmp_path):
    run_invalid(capsys, "moduli", "coords", "--rep", str(tmp_path))


def test_non_utf8_file_is_invalid_input(capsys, tmp_path):
    qpath = tmp_path / "q.json"
    qpath.write_bytes(b'\xff\xfe{"vertices": []}')
    run_invalid(capsys, "validate", "--quiver", str(qpath))


def test_non_numeric_weight_is_invalid_input(capsys, a3_files, tmp_path):
    _, rpath = a3_files
    rep = json.loads(Path(rpath).read_text())
    rep["weights"]["ij"] = "a"
    err = run_invalid(capsys, "moduli", "coords", "--rep", write_json(tmp_path, "bad.json", rep))
    assert "'ij'" in err


@pytest.mark.parametrize(
    "dims,named", [([1, 1, 1], "'dims'"), ({"i": "a", "j": 1, "k": 1}, "'i'")], ids=["list", "non-integer"]
)
def test_malformed_dims_is_invalid_input(capsys, a3_files, tmp_path, dims, named):
    _, rpath = a3_files
    rep = json.loads(Path(rpath).read_text())
    rep["dims"] = dims
    err = run_invalid(capsys, "moduli", "coords", "--rep", write_json(tmp_path, "bad.json", rep))
    assert named in err


@pytest.mark.parametrize("z,want", [(-1000.0, 0.0), (1000.0, 2.0)])
def test_net_eval_saturated_sigmoid(capsys, tmp_path, z, want):
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1.0, 2.0, "sigmoid")))
    code, out = run(capsys, "--format", "json", "net", "eval", "--net", npath, "--input", repr(z))
    assert code == 0
    assert abs(json.loads(out)["output"][0] - want) <= 1e-12


@pytest.mark.parametrize("key,value", [("activations", ["relu"]), ("bias", 5)], ids=["activations-list", "bias-int"])
def test_malformed_network_file_is_invalid_input(capsys, tmp_path, key, value):
    payload = io.network_to_json(single_vertex_net(1.0, 1.0))
    payload[key] = value
    npath = write_json(tmp_path, "bad.json", payload)
    err = run_invalid(capsys, "net", "eval", "--net", npath, "--input", "1")
    assert f"'{key}'" in err


@pytest.mark.parametrize(
    "argv",
    [["example", "d4tilde", "--seed", "-1"], ["net", "gradcheck", "--net", "{net}", "--seed", "-1"]],
    ids=["example", "gradcheck"],
)
def test_negative_seed_is_invalid_input(capsys, tmp_path, argv):
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1.2, -0.8)))
    assert "--seed" in run_invalid(capsys, *(a.format(net=npath) for a in argv))


@pytest.mark.parametrize("flag", ["--f", "--h"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_single_vertex_example_non_finite_weight_is_invalid_input(capsys, flag, value):
    assert "must be finite" in run_invalid(capsys, "example", "single-vertex-relu", flag, value)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize(
    "argv",
    [
        ["relu", "momentum", "--rep", "{rep}"],
        ["thin", "tensor", "{rep}", "{rep}"],
        ["net", "psihat", "--rep", "{rep}"],
        ["moduli", "coords", "--rep", "{rep}"],
        ["example", "single-vertex-relu", "--f", "1e200", "--h", "1e200"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_non_finite_result_is_numeric_failure(capsys, recwarn, tmp_path, argv, fmt):
    """Weights of 1e200 overflow every product of two; nothing is printed, and
    the one-line message is all of stderr, with no numpy warning ahead of it."""
    doc = {"quiver": README_QUIVER, "dims": {"s": 1, "v": 1, "t": 1}, "weights": {"f": 1e200, "h": 1e200}}
    path = write_json(tmp_path, "rep.json", doc)
    code = main(["--format", fmt, *(a.format(rep=path) for a in argv)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "numeric failure: the result holds a NaN or an infinite number\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_non_finite_knowledge_writes_no_file(capsys, tmp_path):
    """The finiteness check runs before `--out` is opened, so exit 3 leaves no file."""
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1e200, 1e200)))
    kpath = tmp_path / "k.json"
    code = main(["net", "knowledge", "--net", npath, "--input", "1", "--out", str(kpath)])
    assert code == 3 and not kpath.exists()
    assert capsys.readouterr().err.startswith("numeric failure: ")


def test_nan_gradcheck_is_numeric_failure(capsys, tmp_path):
    """On 1e200 weights the finite differences are NaN; the worst error keeps
    the NaN, so gradcheck exits 3 instead of reporting success."""
    npath = write_json(tmp_path, "net.json", io.network_to_json(single_vertex_net(1e200, 1e200)))
    code = main(["--format", "json", "net", "gradcheck", "--net", npath, "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numeric failure: ")


def test_readme_command_lines_parse():
    """Every `qmn` line of the README's CLI block, continuations joined,
    parses; a flag renamed without its README line fails here."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = next(b for b in text.split("```sh\n")[1:] if b.startswith("qmn "))
    lines = [line for line in block.split("```")[0].replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) >= 18
    for line in lines:
        assert callable(build_parser().parse_args(shlex.split(line)[1:]).run)


def test_closed_stdout_exits_zero_quietly(a3_files):
    """A reader that stops early, as in `qmn ... | head -c 10`, ends only the
    output: the command finished, so exit 0 with nothing on stderr."""
    _, rpath = a3_files
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmn.cli", "--format", "json", "moduli", "rank", "--rep", rpath],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
