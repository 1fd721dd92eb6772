"""Command-line surface: validation, moduli coordinates, thin tensor algebra,
network evaluation/training, momentum balancing, and the bundled example
recipes.

Exit codes: 0 success, 1 usage error, 2 validation/file error, 3 numeric
failure (no convergence, divergence, singular pre-activation).
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import examples, grad, io, linalg, moduli, network, relu as relu_mod, thincat
from .errors import DivergenceDetected, NoConvergence, QmnError, SingularPreActivation
from .quiver import validate
from .rep import join, random_triple, split

FD_STEP = 1e-5  # central-difference step of `net gradcheck`


class UsageError(Exception):
    pass


class NonFiniteResult(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite(obj):
    """No NaN or infinite number anywhere in a payload; a list of lists is
    checked as the list of their items, a list of floats at C speed."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if not isinstance(obj, list):
        return not isinstance(obj, float) or math.isfinite(obj)
    kinds = set(map(type, obj))
    if kinds == {list}:
        return _finite([x for row in obj for x in row])
    return all(map(math.isfinite if kinds <= {float} else _finite, obj))


def _check_finite(obj):
    if not _finite(obj):
        raise NonFiniteResult("the result holds a NaN or an infinite number")
    return obj


def _write_json_lines(files):
    """Write `{path: rows}` as JSON lines, once every row is known finite; a None path is skipped."""
    files = {path: _check_finite(rows) for path, rows in files.items() if path}
    for path, rows in files.items():
        with open(path, "w") as fh:
            fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)


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
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _fmt_flat(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_flat(x) for x in v) + "]"
    return str(v)


def _quiver(args):
    """The --quiver override, or None to read the quiver a file embeds."""
    return io.quiver_from_json(args.quiver) if args.quiver else None


def _triple(args):
    return split(io.representation_from_json(args.rep, _quiver(args)))


def _net(args):
    return io.network_from_json(args.net, _quiver(args))


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
    """The blocks keyed by path label; two paths with one label (an arrow id
    holding '.' or '>') are refused rather than one of them dropped."""
    blocks = {}
    for label, b in ((p.label(), b) for p, b in point.blocks.items()):
        if label in blocks:
            raise QmnError(f"two hidden paths share the block label {label!r}; rename arrows whose ids hold '.' or '>'")
        blocks[label] = b.tolist()
    payload = {"blocks": blocks}
    if assembled:
        payload["matrix"] = point.assembled().tolist()
    return payload


def _validate(args):
    c = validate(io.quiver_from_json(args.quiver))
    return {
        "sources": list(c.sources),
        "sinks": list(c.sinks),
        "hidden": list(c.hidden),
        "degenerate": list(c.degenerate),
        "weakly_connected": c.weakly_connected,
    }


def _dims(args):
    """--quiver with --rep's dimension vector, or the thin one without --rep."""
    q = _quiver(args)
    return q, io.representation_from_json(args.rep, q).dims if args.rep else dict.fromkeys(q.vertices, 1)


def _moduli_dim(args):
    md = moduli.moduli_dimension(*_dims(args))
    return {"dimension": md.value, "expected_only": md.expected_only}


def _simple_exists(args):
    report = moduli.simple_rep_exists(*_dims(args))
    return {"exists": report.exists, "reason": report.reason, "single_cycle": report.single_cycle}


def _invertible(args):
    a = io.thin_from_json(args.a)
    ok = thincat.is_invertible(a)
    out = {"invertible": ok}
    if ok:
        out["inverse"] = io.thin_to_json(thincat.inverse(a))["weights"]
    return out


def _morphism(args):
    a = io.thin_from_json(args.a)
    b = io.thin_from_json(args.b)
    g = thincat.solve_morphism(a, b, args.tol)
    if g is None:
        return {"morphism": None}
    return {"morphism": g, "invertible": thincat.check_morphism(g, a, b, args.tol).invertible}


def _net_eval(args):
    net = _net(args)
    out, trace = network.forward(net, _parse_inputs(args.input))
    return {"output": out.tolist(), "activations": {v: trace.values[v] for v in net.quiver.vertices}}


def _knowledge(args):
    payload = io.thin_to_json(network.knowledge_map(_net(args), _parse_inputs(args.input)))
    _write_json_lines({args.out: [payload]})
    return payload


def _train(args):
    net = _net(args)
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
    _write_json_lines({args.trace_moduli: trace_rows, args.out: [io.network_to_json(result.network)]})
    return {"final_loss": result.losses[-1], "epochs": args.epochs, "losses_head": result.losses[:5]}


def _gradcheck(args):
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise QmnError(f"--tol must be finite and >= 0, got {args.tol}")
    net = _net(args)
    rng = _rng(args.seed)
    x = rng.standard_normal(len(net.input_vertices))
    y = rng.standard_normal(len(net.output_vertices))
    analytic = grad.backprop(net, x, y, "mse")
    worst = float(_fd_worst_err(net, x, y, analytic))
    return {"max_rel_err": worst, "ok": bool(worst <= args.tol)}


def _fd_worst_err(net, x, y, analytic):
    c = net.compiled
    loss = grad.get_loss("mse")
    x = network.columns([x], c.n_inputs)
    base = c.weight_vector(net.weights.weights)

    def value(w):
        values, _ = c.forward(c.plan.blocks([w]), x)
        return loss.value(values[c.outputs, 0], y)

    errs = []
    for k, aid in enumerate(c.arrows):
        step = np.zeros_like(base)
        step[k] = FD_STEP
        fd = (value(base + step) - value(base - step)) / (2 * FD_STEP)
        scale = max(abs(fd), abs(analytic.weights[aid]), 1.0)
        errs.append(abs(fd - analytic.weights[aid]) / scale)
    return np.max(errs, initial=0.0)  # a NaN error stays NaN


def _momentum(args):
    return {"momentum": {i: m.tolist() for i, m in relu_mod.momentum(_triple(args)).values.items()}}


def _balance(args):
    result = relu_mod.balance(_triple(args), args.target, args.tol)
    return {
        "gauge": {i: float(g[0, 0]) for i, g in result.gauge.items()},
        "sweeps": result.sweeps,
        "residual": result.residual,
    }


def _d4tilde(args):
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
    return {
        "quiver": io.quiver_to_json(q),
        "weights": {aid: float(m[0, 0]) for aid, m in join(t).matrices.items()},
        "coords": _point_payload(point, assembled=True),
        "rank": point.rank_vector(),
        "dimension": md.value,
        "factorization_err": fact_err,
    }


def _a3(args):
    q = examples.quiver_a3()
    dims = examples.thin_dims(q)
    report = moduli.simple_rep_exists(q, dims)
    return {
        "quiver": io.quiver_to_json(q),
        "dimension": moduli.moduli_dimension(q, dims).value,
        "simple_exists": report.exists,
        "single_cycle": report.single_cycle,
    }


def _single_vertex_relu(args):
    if not (np.isfinite(args.f) and np.isfinite(args.h)):
        raise QmnError(f"--f and --h must be finite, got {args.f}, {args.h}")
    net = examples.single_vertex_net(args.f, args.h)
    mu = relu_mod.momentum(net.weights.to_triple()).scalars()
    table = [{"input": u, "output": network.forward(net, [u])[0].tolist()} for u in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    return {"momentum": mu, "network_function": table}


def build_parser():
    """The `qmn` parser; each subcommand stores its handler as `run`."""
    top = Parser(prog="qmn", description=__doc__)
    top.add_argument("--format", choices=["json", "csv", "table"], default="table")
    verbs = top.add_subparsers(dest="verb", required=True)

    def command(group, name, run, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        return p

    def group(name, summary):
        return verbs.add_parser(name, help=summary).add_subparsers(dest="sub", required=True)

    p = command(verbs, "validate", _validate, help="classify a quiver's vertices")
    p.add_argument("--quiver", required=True)

    mod = group("moduli", "moduli coordinates and tests")
    p = command(mod, "coords", lambda a: _point_payload(moduli.project(_triple(a)), assembled=a.assembled))
    p.add_argument("--quiver")
    p.add_argument("--rep", required=True)
    p.add_argument("--assembled", action="store_true")
    p = command(mod, "rank", lambda a: {"rank": moduli.project(_triple(a)).rank_vector(a.tol)})
    p.add_argument("--quiver")
    p.add_argument("--rep", required=True)
    p.add_argument("--tol", type=float, default=linalg.RANK_TOL)
    for name, run in (("dim", _moduli_dim), ("simple-exists", _simple_exists)):
        p = command(mod, name, run)
        p.add_argument("--quiver", required=True)
        p.add_argument("--rep")

    thin = group("thin", "thin representations and tensor structure")
    p = command(
        thin, "tensor", lambda a: io.thin_to_json(thincat.tensor(io.thin_from_json(a.a), io.thin_from_json(a.b)))
    )
    p.add_argument("a")
    p.add_argument("b")
    p = command(thin, "invertible", _invertible)
    p.add_argument("a")
    p = command(thin, "morphism", _morphism)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=thincat.MORPHISM_TOL)

    net = group("net", "network evaluation, knowledge map, training")
    p = command(net, "eval", _net_eval)
    p.add_argument("--net", required=True)
    p.add_argument("--quiver")
    p.add_argument("--input", required=True)
    p = command(net, "knowledge", _knowledge)
    p.add_argument("--net", required=True)
    p.add_argument("--quiver")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p = command(
        net, "psihat", lambda a: {"psi_hat": network.psi_hat(io.thin_from_json(a.rep, _quiver(a))).tolist()}
    )
    p.add_argument("--rep", required=True)
    p.add_argument("--quiver")
    p = command(net, "train", _train)
    p.add_argument("--net", required=True)
    p.add_argument("--quiver")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", default="mse", choices=sorted(grad.LOSSES))
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--trace-moduli")
    p.add_argument("--out")
    p = command(net, "gradcheck", _gradcheck)
    p.add_argument("--net", required=True)
    p.add_argument("--quiver")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)

    relu = group("relu", "momentum values and positive-gauge balancing")
    p = command(relu, "momentum", _momentum)
    p.add_argument("--rep", required=True)
    p.add_argument("--quiver")
    p = command(relu, "balance", _balance)
    p.add_argument("--rep", required=True)
    p.add_argument("--quiver")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tol", type=float, default=relu_mod.LEVEL_TOL)

    ex = group("example", "bundled worked examples")
    p = command(ex, "d4tilde", _d4tilde)
    p.add_argument("--seed", type=int, default=0)
    command(ex, "a3", _a3)
    p = command(ex, "single-vertex-relu", _single_vertex_relu)
    p.add_argument("--f", type=float, default=3.0)
    p.add_argument("--h", type=float, default=2.0)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        # overflow and NaN surface as exit 3 through the finiteness check, not as warnings
        with np.errstate(all="ignore"):
            payload = _check_finite(args.run(args))
    except (NoConvergence, DivergenceDetected, SingularPreActivation, NonFiniteResult) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (QmnError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(payload, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: the command still finished, and pointing
        # stdout at devnull keeps the interpreter's flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
