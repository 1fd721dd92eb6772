"""JSON file formats for quivers, representations, and networks.

Quiver:          {"vertices": [...], "arrows": [{"id","from","to"}, ...],
                  "roles": {vertex: "input"|"bias"|"output"|"hidden"}?,
                  "network": bool?}
Representation:  {"dims": {vertex: int}, "weights": {arrow: [[...]] | scalar},
                  "quiver": {...}?}
Network:         representation keys plus {"activations": {vertex: tag},
                  "bias": [vertices]}

Emitted files embed the quiver so they are self-contained; a quiver passed
explicitly takes precedence.
"""

import csv
import json
import os

import numpy as np

from .errors import QmnError
from .network import NeuralNetwork
from .quiver import Quiver
from .rep import Representation
from .thincat import ThinRep


def _load(path_or_obj, kind):
    """The top-level mapping of a file path or an already parsed object."""
    obj = path_or_obj
    if isinstance(path_or_obj, (str, os.PathLike)):
        with open(path_or_obj) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise QmnError(f"malformed {kind} file: a {type(obj).__name__}, not a mapping")
    return obj


def _list_of(value, kind):
    return isinstance(value, list) and all(isinstance(x, kind) for x in value)


def _embedded_quiver(obj, kind):
    """The quiver mapping embedded in a representation or network file; only
    a top-level argument is ever opened as a path."""
    if "quiver" not in obj:
        raise QmnError(f"{kind} file has no embedded quiver and none was supplied")
    if not isinstance(obj["quiver"], dict):
        raise QmnError(f"malformed {kind} file: embedded quiver is not a mapping")
    return obj["quiver"]


def quiver_from_json(obj) -> Quiver:
    obj = _load(obj, "quiver")
    try:
        vertices, arrows = obj["vertices"], obj["arrows"]
        if not _list_of(arrows, dict):
            raise QmnError("malformed quiver file: 'arrows' is not a list of mappings")
        arrows = [(a["id"], a["from"], a["to"]) for a in arrows]
    except KeyError as exc:
        raise QmnError(f"malformed quiver file: missing key {exc}") from exc
    if not (_list_of(vertices, str) and all(isinstance(x, str) for a in arrows for x in a)):
        raise QmnError("malformed quiver file: vertex and arrow names must be strings")
    roles = obj.get("roles")
    if roles is not None and not isinstance(roles, dict):
        raise QmnError("malformed quiver file: 'roles' is not a mapping")
    network = obj.get("network", False)
    if not isinstance(network, bool):
        raise QmnError("malformed quiver file: 'network' is not a boolean")
    return Quiver(vertices, arrows, roles=roles, network=network)


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"id": a.id, "from": a.source, "to": a.target} for a in q.arrows],
        "roles": dict(q.roles),
        "network": q.network,
    }


def representation_from_json(obj, quiver: Quiver = None) -> Representation:
    obj = _load(obj, "representation")
    if quiver is None:
        quiver = quiver_from_json(_embedded_quiver(obj, "representation"))
    try:
        dims, weights = obj["dims"], obj["weights"]
    except KeyError as exc:
        raise QmnError(f"malformed representation file: missing key {exc}") from exc
    for key, value in (("dims", dims), ("weights", weights)):
        if not isinstance(value, dict):
            raise QmnError(f"malformed representation file: {key!r} is a {type(value).__name__}, not a mapping")
    for v, d in dims.items():
        if not isinstance(d, int) or isinstance(d, bool):
            raise QmnError(f"malformed representation file: dimension of vertex {v!r} is {d!r}, not an integer")
    mats = {}
    for aid, value in weights.items():
        try:
            mats[aid] = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise QmnError(f"malformed representation file: weight of arrow {aid!r}: {exc}") from exc
        for x in np.asarray(value, dtype=object).flat:  # JSON numbers only: numpy also reads strings and booleans
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                kind = "a boolean" if isinstance(x, bool) else f"{x!r}, not a number"
                raise QmnError(f"malformed representation file: weight of arrow {aid!r} holds {kind}")
        if not np.all(np.isfinite(mats[aid])):
            raise QmnError(f"malformed representation file: weight of arrow {aid!r} is not finite")
    return Representation(quiver, dict(dims), mats)


def representation_to_json(r: Representation) -> dict:
    weights = {}
    for aid, m in r.matrices.items():
        weights[aid] = float(m[0, 0]) if m.shape == (1, 1) else m.tolist()
    return {"quiver": quiver_to_json(r.quiver), "dims": dict(r.dims), "weights": weights}


def thin_from_json(obj, quiver: Quiver = None) -> ThinRep:
    r = representation_from_json(obj, quiver)
    if not r.is_thin():
        raise QmnError("expected a thin representation (all dimensions 1)")
    return ThinRep(r.quiver, {aid: float(m[0, 0]) for aid, m in r.matrices.items()})


def thin_to_json(t: ThinRep) -> dict:
    return {
        "quiver": quiver_to_json(t.quiver),
        "dims": {v: 1 for v in t.quiver.vertices},
        "weights": dict(t.weights),
    }


def network_from_json(obj, quiver: Quiver = None) -> NeuralNetwork:
    obj = _load(obj, "network")
    if quiver is None:
        quiver = quiver_from_json({**_embedded_quiver(obj, "network"), "network": True})
    thin = thin_from_json(obj, quiver)
    activations, bias = obj.get("activations", {}), obj.get("bias", [])
    if not isinstance(activations, dict) or not all(isinstance(t, str) for t in activations.values()):
        raise QmnError("malformed network file: 'activations' is not a mapping of vertices to tags")
    if not isinstance(bias, list) or not all(isinstance(v, str) for v in bias):
        raise QmnError("malformed network file: 'bias' is not a list of vertex names")
    bias = set(bias) | {v for v, r in quiver.roles.items() if r == "bias"}
    activations = dict(activations)
    for v in quiver.hidden:
        activations.setdefault(v, "identity")
    return NeuralNetwork(thin, activations, frozenset(bias))


def network_to_json(net: NeuralNetwork) -> dict:
    out = thin_to_json(net.weights)
    out["activations"] = dict(net.activations)
    out["bias"] = sorted(net.bias)
    return out


def load_data_csv(path, n_inputs: int, n_outputs: int):
    """One sample per row: n_inputs feature columns then n_outputs label
    columns, every cell a finite number."""
    samples = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise QmnError(f"{path}, row {rows.line_num}: {exc}") from exc
            if not np.isfinite(vals).all():
                raise QmnError(f"{path}, row {rows.line_num}: values must be finite")
            if len(vals) != n_inputs + n_outputs:
                raise QmnError(
                    f"{path}, row {rows.line_num}: {len(vals)} columns, expected {n_inputs + n_outputs}"
                )
            samples.append((np.array(vals[:n_inputs]), np.array(vals[n_inputs:])))
    return samples
