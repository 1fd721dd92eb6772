import json

import numpy as np
import pytest
from conftest import layered_quiver

from qmn import io
from qmn.cli import main
from qmn.examples import quiver_a3, quiver_d4tilde, quiver_single_vertex, single_vertex_net
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
    rows = [json.loads(line) for line in open(tpath)]
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


@pytest.mark.parametrize("missing", ["dims", "weights"])
def test_rep_file_without_key_is_invalid_input(capsys, a3_files, tmp_path, missing):
    _, rpath = a3_files
    rep = json.loads(open(rpath).read())
    del rep[missing]
    bad = write_json(tmp_path, "bad.json", rep)
    err = run_invalid(capsys, "moduli", "coords", "--rep", bad)
    assert missing in err


def test_rep_directory_is_invalid_input(capsys, tmp_path):
    run_invalid(capsys, "moduli", "coords", "--rep", str(tmp_path))


def test_non_numeric_weight_is_invalid_input(capsys, a3_files, tmp_path):
    _, rpath = a3_files
    rep = json.loads(open(rpath).read())
    rep["weights"]["ij"] = "a"
    err = run_invalid(capsys, "moduli", "coords", "--rep", write_json(tmp_path, "bad.json", rep))
    assert "'ij'" in err


@pytest.mark.parametrize(
    "dims,named", [([1, 1, 1], "'dims'"), ({"i": "a", "j": 1, "k": 1}, "'i'")], ids=["list", "non-integer"]
)
def test_malformed_dims_is_invalid_input(capsys, a3_files, tmp_path, dims, named):
    _, rpath = a3_files
    rep = json.loads(open(rpath).read())
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
