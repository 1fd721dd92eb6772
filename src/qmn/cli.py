"""Command-line surface: validation, moduli coordinates, thin tensor algebra,
network evaluation/training, momentum balancing, and the bundled example
recipes.

Exit codes: 0 success, 1 usage error, 2 validation/file error, 3 numeric
failure (no convergence, divergence, singular pre-activation).
"""

import argparse
import json
import sys

import numpy as np

from . import examples, grad, io, moduli, network, relu as relu_mod, thincat
from .errors import (
    DivergenceDetected,
    NoConvergence,
    QmnError,
    SingularPreActivation,
)
from .quiver import validate
from .rep import random_triple, split


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(obj, fmt):
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    elif fmt == "csv":
        _emit_csv(obj)
    else:
        _emit_table(obj)


def _emit_csv(obj):
    if isinstance(obj, dict) and "matrix" in obj:
        for row in obj["matrix"]:
            print(",".join(repr(float(x)) for x in row))
    else:
        print(json.dumps(obj, sort_keys=True))


def _emit_table(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}{k}:")
                _emit_table(v, indent + 1)
            else:
                print(f"{pad}{k}: {_fmt_flat(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _emit_table(v, indent)
            else:
                print(f"{pad}{_fmt_flat(v)}")
    else:
        print(f"{pad}{_fmt_flat(obj)}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _fmt_flat(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_flat(x) for x in v) + "]"
    return str(v)


def _load_quiver_and_rep(args, thin_default=False):
    qv = io.quiver_from_json(args.quiver) if getattr(args, "quiver", None) else None
    rep = None
    if getattr(args, "rep", None):
        rep = io.representation_from_json(args.rep, qv)
        qv = rep.quiver
    if qv is None:
        raise QmnError("a quiver is required (via --quiver or an embedded one in --rep)")
    if rep is None and thin_default:
        dims = {v: 1 for v in qv.vertices}
        mats = {a.id: 1.0 for a in qv.arrows}
        from .rep import Representation

        rep = Representation(qv, dims, mats)
    return qv, rep


def _parse_inputs(text):
    try:
        x = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise QmnError(f"--input {text!r}: {exc}") from exc
    if not np.isfinite(x).all():
        raise QmnError(f"--input {text!r}: values must be finite")
    return x


def _rng(seed):
    if seed < 0:
        raise QmnError(f"--seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _point_payload(point, assembled=False):
    blocks = {
        p.label(): b.tolist() for p, b in sorted(point.blocks.items(), key=lambda kv: kv[0].label())
    }
    payload = {"blocks": blocks}
    if assembled:
        payload["matrix"] = point.assembled().tolist()
    return payload


def build_parser():
    top = Parser(prog="qmn", description=__doc__)
    top.add_argument("--format", choices=["json", "csv", "table"], default="table")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="classify a quiver's vertices")
    p.add_argument("--quiver", required=True)

    pm = sub.add_parser("moduli", help="moduli coordinates and tests")
    msub = pm.add_subparsers(dest="sub", required=True)
    p = msub.add_parser("coords")
    p.add_argument("--quiver")
    p.add_argument("--rep", required=True)
    p.add_argument("--assembled", action="store_true")
    p = msub.add_parser("rank")
    p.add_argument("--quiver")
    p.add_argument("--rep", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p = msub.add_parser("dim")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rep")
    p = msub.add_parser("simple-exists")
    p.add_argument("--quiver", required=True)
    p.add_argument("--rep")

    pt = sub.add_parser("thin", help="thin representations and tensor structure")
    tsub = pt.add_subparsers(dest="sub", required=True)
    p = tsub.add_parser("tensor")
    p.add_argument("a")
    p.add_argument("b")
    p = tsub.add_parser("invertible")
    p.add_argument("a")
    p = tsub.add_parser("morphism")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=1e-9)

    pn = sub.add_parser("net", help="network evaluation, knowledge map, training")
    nsub = pn.add_subparsers(dest="sub", required=True)
    p = nsub.add_parser("eval")
    p.add_argument("--net", required=True)
    p.add_argument("--quiver")
    p.add_argument("--input", required=True)
    p = nsub.add_parser("knowledge")
    p.add_argument("--net", required=True)
    p.add_argument("--quiver")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p = nsub.add_parser("psihat")
    p.add_argument("--rep", required=True)
    p.add_argument("--quiver")
    p = nsub.add_parser("train")
    p.add_argument("--net", required=True)
    p.add_argument("--quiver")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", default="mse", choices=sorted(grad.LOSSES))
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--trace-moduli")
    p.add_argument("--out")
    p = nsub.add_parser("gradcheck")
    p.add_argument("--net", required=True)
    p.add_argument("--quiver")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)

    pr = sub.add_parser("relu", help="momentum values and positive-gauge balancing")
    rsub = pr.add_subparsers(dest="sub", required=True)
    p = rsub.add_parser("momentum")
    p.add_argument("--rep", required=True)
    p.add_argument("--quiver")
    p = rsub.add_parser("balance")
    p.add_argument("--rep", required=True)
    p.add_argument("--quiver")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)

    pe = sub.add_parser("example", help="bundled worked examples")
    esub = pe.add_subparsers(dest="sub", required=True)
    p = esub.add_parser("d4tilde")
    p.add_argument("--seed", type=int, default=0)
    p = esub.add_parser("a3")
    p = esub.add_parser("single-vertex-relu")
    p.add_argument("--f", type=float, default=3.0)
    p.add_argument("--h", type=float, default=2.0)
    return top


def cmd_validate(args):
    q = io.quiver_from_json(args.quiver)
    c = validate(q)
    return {
        "sources": list(c.sources),
        "sinks": list(c.sinks),
        "hidden": list(c.hidden),
        "degenerate": list(c.degenerate),
        "weakly_connected": c.weakly_connected,
    }


def cmd_moduli(args):
    if args.sub == "coords":
        _, rep = _load_quiver_and_rep(args)
        point = moduli.project(split(rep))
        return _point_payload(point, assembled=args.assembled)
    if args.sub == "rank":
        _, rep = _load_quiver_and_rep(args)
        point = moduli.project(split(rep))
        return {"rank": point.rank_vector(args.tol)}
    if args.sub == "dim":
        qv, rep = _load_quiver_and_rep(args, thin_default=True)
        md = moduli.moduli_dimension(qv, rep.dims)
        return {"dimension": md.value, "expected_only": md.expected_only}
    if args.sub == "simple-exists":
        qv, rep = _load_quiver_and_rep(args, thin_default=True)
        report = moduli.simple_rep_exists(qv, rep.dims)
        return {"exists": report.exists, "reason": report.reason, "single_cycle": report.single_cycle}
    raise UsageError("unknown moduli subcommand")


def cmd_thin(args):
    if args.sub == "tensor":
        a = io.thin_from_json(args.a)
        b = io.thin_from_json(args.b)
        return io.thin_to_json(thincat.tensor(a, b))
    if args.sub == "invertible":
        a = io.thin_from_json(args.a)
        ok = thincat.is_invertible(a)
        out = {"invertible": ok}
        if ok:
            out["inverse"] = io.thin_to_json(thincat.inverse(a))["weights"]
        return out
    if args.sub == "morphism":
        a = io.thin_from_json(args.a)
        b = io.thin_from_json(args.b)
        g = thincat.solve_morphism(a, b, args.tol)
        if g is None:
            return {"morphism": None}
        rep = thincat.check_morphism(g, a, b, args.tol)
        return {"morphism": g, "invertible": rep.invertible}
    raise UsageError("unknown thin subcommand")


def cmd_net(args):
    if args.sub == "eval":
        net = io.network_from_json(args.net, io.quiver_from_json(args.quiver) if args.quiver else None)
        out, trace = network.forward(net, _parse_inputs(args.input))
        return {
            "output": out.tolist(),
            "activations": {v: trace.values[v] for v in net.quiver.vertices},
        }
    if args.sub == "knowledge":
        net = io.network_from_json(args.net, io.quiver_from_json(args.quiver) if args.quiver else None)
        k = network.knowledge_map(net, _parse_inputs(args.input))
        payload = io.thin_to_json(k)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
        return payload
    if args.sub == "psihat":
        t = io.thin_from_json(args.rep, io.quiver_from_json(args.quiver) if args.quiver else None)
        return {"psi_hat": network.psi_hat(t).tolist()}
    if args.sub == "train":
        net = io.network_from_json(args.net, io.quiver_from_json(args.quiver) if args.quiver else None)
        data = io.load_data_csv(args.data, len(net.input_vertices), len(net.output_vertices))
        trace_rows = []

        def on_epoch(epoch, current, value):
            try:
                point = moduli.project(network.knowledge_map(current, data[0][0]).to_triple())
                coords = _point_payload(point)["blocks"]
            except SingularPreActivation:
                coords = None
            trace_rows.append({"epoch": epoch, "loss": value, "coords": coords})

        result = grad.train(
            net, data, args.loss, args.lr, args.epochs, on_epoch=on_epoch if args.trace_moduli else None
        )
        if args.trace_moduli:
            with open(args.trace_moduli, "w") as fh:
                for row in trace_rows:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(io.network_to_json(result.network), fh, sort_keys=True)
        return {"final_loss": result.losses[-1], "epochs": args.epochs, "losses_head": result.losses[:5]}
    if args.sub == "gradcheck":
        if not (np.isfinite(args.tol) and args.tol >= 0):
            raise QmnError(f"--tol must be finite and >= 0, got {args.tol}")
        net = io.network_from_json(args.net, io.quiver_from_json(args.quiver) if args.quiver else None)
        rng = _rng(args.seed)
        x = rng.standard_normal(len(net.input_vertices))
        y = rng.standard_normal(len(net.output_vertices))
        analytic = grad.backprop(net, x, y, "mse")
        worst = float(_fd_worst_err(net, x, y, analytic))
        return {"max_rel_err": worst, "ok": bool(worst <= args.tol)}
    raise UsageError("unknown net subcommand")


def _fd_worst_err(net, x, y, analytic, h=1e-5):
    c = net.compiled
    loss = grad.get_loss("mse")
    x = network.columns([x], c.n_inputs)
    base = c.weight_vector(net.weights.weights)

    def value(w):
        values, _ = c.forward(c.level_blocks(w), x)
        return loss.value(values[c.outputs, 0], y)

    worst = 0.0
    for k, aid in enumerate(c.arrows):
        step = np.zeros_like(base)
        step[k] = h
        fd = (value(base + step) - value(base - step)) / (2 * h)
        scale = max(abs(fd), abs(analytic.weights[aid]), 1.0)
        worst = max(worst, abs(fd - analytic.weights[aid]) / scale)
    return worst


def cmd_relu(args):
    _, rep = _load_quiver_and_rep(args)
    t = split(rep)
    if args.sub == "momentum":
        mu = relu_mod.momentum(t)
        return {"momentum": {i: m.tolist() for i, m in mu.values.items()}}
    if args.sub == "balance":
        result = relu_mod.balance(t, args.target, args.tol)
        return {
            "gauge": {i: float(g[0, 0]) for i, g in result.gauge.items()},
            "sweeps": result.sweeps,
            "residual": result.residual,
        }
    raise UsageError("unknown relu subcommand")


def cmd_example(args):
    if args.sub == "d4tilde":
        rng = _rng(args.seed)
        q = examples.quiver_d4tilde()
        dims = examples.thin_dims(q)
        t = random_triple(q, dims, rng)
        point = moduli.project(t)
        md = moduli.moduli_dimension(q, dims)
        net = examples.d4tilde_net(rng=rng, activation="relu")
        x = rng.standard_normal(len(net.input_vertices))
        out, _ = network.forward(net, x)
        try:
            k = network.knowledge_map(net, x)
            fact_err = float(np.max(np.abs(out - network.psi_hat(k))))
        except SingularPreActivation:
            fact_err = None  # draw hit a zero pre-activation; map undefined there
        from .rep import join

        full = join(t)
        return {
            "quiver": io.quiver_to_json(q),
            "weights": {aid: float(m[0, 0]) for aid, m in full.matrices.items()},
            "coords": _point_payload(point, assembled=True),
            "rank": point.rank_vector(),
            "dimension": md.value,
            "factorization_err": fact_err,
        }
    if args.sub == "a3":
        q = examples.quiver_a3()
        dims = examples.thin_dims(q)
        md = moduli.moduli_dimension(q, dims)
        report = moduli.simple_rep_exists(q, dims)
        return {
            "quiver": io.quiver_to_json(q),
            "dimension": md.value,
            "simple_exists": report.exists,
            "single_cycle": report.single_cycle,
        }
    if args.sub == "single-vertex-relu":
        if not (np.isfinite(args.f) and np.isfinite(args.h)):
            raise QmnError(f"--f and --h must be finite, got {args.f}, {args.h}")
        net = examples.single_vertex_net(args.f, args.h)
        t = net.weights.to_triple()
        mu = relu_mod.momentum(t).scalars()
        table = []
        for u in (-2.0, -1.0, 0.0, 1.0, 2.0):
            out, _ = network.forward(net, [u])
            table.append({"input": u, "output": out.tolist()})
        return {"momentum": mu, "network_function": table}
    raise UsageError("unknown example")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.verb == "validate":
            payload = cmd_validate(args)
        elif args.verb == "moduli":
            payload = cmd_moduli(args)
        elif args.verb == "thin":
            payload = cmd_thin(args)
        elif args.verb == "net":
            payload = cmd_net(args)
        elif args.verb == "relu":
            payload = cmd_relu(args)
        elif args.verb == "example":
            payload = cmd_example(args)
        else:
            print(f"unknown verb {args.verb!r}", file=sys.stderr)
            return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NoConvergence, DivergenceDetected, SingularPreActivation) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (QmnError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
