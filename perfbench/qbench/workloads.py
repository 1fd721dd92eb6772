"""The four workloads: set-up, unit operation ("op"), gate, and the inputs of
the standalone layer probes.

Every op runs in a closed loop, one at a time, single-threaded.  An op is
timed from outside; its gate runs afterwards on a stopped clock.  The loop
stops at the first op boundary after `seconds` once `min_ops` ops are done,
or at `budget` seconds whatever happened; the budget is enforced with
SIGALRM so an op that hangs is cut off and the run is recorded as a timeout.
"""

import math
import signal
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from qmn import grad, io, linalg, moduli, network, quiver, relu, rep, thincat

from . import gates, gen
from .trace import NULL

MIN_OPS = 100  # enough for a p90 with 10 ops beyond it
TRAIN_LR = 0.05
FD_ARROWS = 6
BALANCE_PROBES = 16


class BudgetExceeded(BaseException):
    """Raised by SIGALRM when a phase runs past its budget.  A BaseException,
    so the op boundary's `except Exception` does not swallow it."""


class _StopTraining(Exception):
    pass


@contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise BudgetExceeded()

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@dataclass
class OpRecord:
    latency: float  # seconds
    ok: bool
    traced: bool
    error: str = None


@dataclass
class RunRecord:
    ops: list
    timeout: bool
    unattempted: int  # ops the budget cut off before they started


@dataclass
class ProbeInputs:
    """What the standalone layer probes run on, all from the workload's own
    inputs."""

    quiver: object
    triple: object  # any triple of the workload
    thin: object  # a ThinRep on the workload's quiver
    representation: object  # a Representation to split
    net: object  # a NeuralNetwork on the workload's quiver
    samples: list  # (x, y) pairs for net
    gauge: dict  # a gauge for rep.act on `triple`
    balance: list  # positive thin triples for relu.balance


def error_text(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class ItemWorkload:
    """A workload whose op k runs on a fresh generated input, item k."""

    name = ""
    min_ops = MIN_OPS

    def __init__(self, d, seed):
        self.d = d
        self.seed = seed
        self.qj = gen.quiver_json(self.name)

    def setup(self, tr):
        self.q = tr.call("io.load", io.quiver_from_json, str(self.d / "quiver.json"))
        self.t0, self.input0 = self.load(self.d / "item0.json", tr)

    def load(self, path, tr):
        """Read one item through qmn.io; returns (triple, loaded object)."""
        thin = tr.call("io.load", io.thin_from_json, str(path), self.q)
        return tr.call("thincat.to_triple", thin.to_triple), thin

    def next_item(self, k, tr):
        path = self.d / "item.json"
        truth = gen.item(self.name, self.seed, k, self.qj, path)
        t, _ = self.load(path, tr)
        return t, truth

    def run(self, seconds, budget, tracer):
        """Ops alternate between the tracer (odd k) and NULL (even k), so a
        traced run compares both under the same conditions."""
        ops, timeout = [], False
        start = perf_counter()
        try:
            with deadline(budget):
                k = 0
                while len(ops) < self.min_ops or perf_counter() - start < seconds:
                    if k == 0:
                        t, truth = self.t0, gen.item(self.name, self.seed, 0, self.qj)
                    else:
                        t, truth = self.next_item(k, tracer)
                    ops.append(self.timed_op(k, t, truth, tracer if k % 2 else NULL))
                    k += 1
        except BudgetExceeded:
            timeout = True
        return finish(ops, timeout, self.min_ops)

    def timed_op(self, k, t, truth, tr):
        tr.begin("bench.op", op=k)
        t1 = perf_counter()
        try:
            out = self.op(t, tr)
            err = None
        except Exception as exc:  # op boundary: a raising op is a failed op
            out, err = None, error_text(exc)
        finally:
            latency = perf_counter() - t1
            tr.end()
        if err is None:
            try:
                err = "; ".join(self.gate(t, truth, out)) or None
            except Exception as exc:
                err = "gate raised " + error_text(exc)
        return OpRecord(latency, err is None, tr.enabled, err)


def finish(ops, timeout, min_ops):
    """On a timeout the op in progress failed and the ops never started up to
    min_ops count as failed too."""
    unattempted = 0
    if timeout:
        ops.append(OpRecord(math.inf, False, False, "timeout: op cut off by the budget"))
        unattempted = max(0, min_ops - len(ops))
    return RunRecord(ops, timeout, unattempted)


class ModuliDeep(ItemWorkload):
    name = "moduli-deep"

    def setup(self, tr):
        super().setup(tr)
        self.in_m = network.in_matrix(self.q, self.t0.dims, self.t0.framing)
        self.out_m = network.out_matrix(self.q, self.t0.dims, self.t0.framing)

    def op(self, t, tr):
        m = tr.call("moduli.project", moduli.project, t)
        a = tr.call("moduli.assembled", m.assembled)
        rv = tr.call("moduli.rank_vector", m.rank_vector)
        s = tr.call("moduli.is_simple", moduli.is_simple, t)
        return a, rv, s

    def gate(self, t, truth, out):
        a, rv, s = out
        return gates.moduli_deep(a, rv, s, self.in_m, self.out_m, truth)

    def probe_inputs(self):
        rng = gen.rng_for(self.name, self.seed, gen.PROBE)
        thin = self.input0
        net = network.NeuralNetwork(thin, {v: "tanh" for v in self.q.hidden})
        return ProbeInputs(self.q, self.t0, thin, thin.to_representation(), net,
                           probe_samples(rng, net), positive_gauge(rng, self.q),
                           [positive_triple(thin)])


class ModuliDense(ItemWorkload):
    name = "moduli-dense"

    def load(self, path, tr):
        r = tr.call("io.load", io.representation_from_json, str(path), self.q)
        return tr.call("rep.split", rep.split, r), r

    def op(self, t, tr):
        m = tr.call("moduli.project", moduli.project, t)
        rv = tr.call("moduli.rank_vector", m.rank_vector)
        s = tr.call("moduli.is_simple", moduli.is_simple, t)
        c = tr.call("moduli.closed_orbit", moduli.closed_orbit_representative, m)
        return m, rv, s, c

    def gate(self, t, truth, out):
        m, rv, s, c = out
        moved = moduli.project(rep.act(truth["gauge"], t))
        back = moduli.project(c)
        return gates.moduli_dense(m, rv, s, t.hidden_dims(), moved, back)

    def probe_inputs(self):
        rng = gen.rng_for(self.name, self.seed, gen.PROBE)
        # the quiver read as a thin network: the (0, 0) entry of every matrix
        thin = thincat.ThinRep(self.q, {a: m[0, 0] for a, m in self.input0.matrices.items()})
        net = network.NeuralNetwork(thin, {v: "tanh" for v in self.q.hidden})
        gauge = gen.item(self.name, self.seed, 0, self.qj)["gauge"]
        return ProbeInputs(self.q, self.t0, thin, self.input0, net, probe_samples(rng, net),
                           gauge, [positive_triple(thin)])


class ReluBalance(ItemWorkload):
    name = "relu-balance"

    def op(self, t, tr):
        r = tr.call("relu.balance", relu.balance, t, 0.0)
        tr.count("relu.sweeps", r.sweeps)
        return r

    def gate(self, t, truth, out):
        balanced = {a: float(m[0, 0]) for a, m in rep.join(out.triple).matrices.items()}
        gauge = {v: float(g[0, 0]) for v, g in out.gauge.items()}
        return gates.relu_balance(truth["weights"], gauge, balanced, truth["inputs"])

    def probe_inputs(self):
        rng = gen.rng_for(self.name, self.seed, gen.PROBE)
        thin = self.input0
        net = network.NeuralNetwork(thin, {v: "relu" for v in self.q.hidden})
        triples = [self.t0]
        for k in range(1, BALANCE_PROBES):
            gen.item(self.name, self.seed, k, self.qj, self.d / "item.json")
            triples.append(self.load(self.d / "item.json", NULL)[0])
        return ProbeInputs(self.q, self.t0, thin, thin.to_representation(), net,
                           probe_samples(rng, net), positive_gauge(rng, self.q), triples)


class TrainMlp:
    """Full-batch training; an op is one epoch, timed between successive
    `on_epoch` callbacks of a single `grad.train` call."""

    name = "train-mlp"
    min_ops = MIN_OPS

    def __init__(self, d, seed):
        self.d = d
        self.seed = seed

    def setup(self, tr):
        self.net = tr.call("io.load", io.network_from_json, str(self.d / "net.json"))
        n_in, n_out = len(self.net.input_vertices), len(self.net.output_vertices)
        self.data = tr.call("io.load", io.load_data_csv, str(self.d / "data.csv"), n_in, n_out)
        self.q = self.net.quiver

    def run(self, seconds, budget, tracer):
        stamps, losses, last = [], [], [self.net]
        start = perf_counter()

        def on_epoch(epoch, net, value):
            now = perf_counter()
            stamps.append(now)
            losses.append(value)
            last[0] = net
            k = len(stamps) - 2  # the op that just ended
            if k >= 0 and k % 2:
                tracer.record("grad.train_epoch", stamps[-2], now, k)
            if k + 1 >= self.min_ops and now - start >= seconds:
                raise _StopTraining

        timeout, crash = False, None
        try:
            with deadline(budget):
                grad.train(self.net, self.data, loss="mse", lr=TRAIN_LR, epochs=10**9, on_epoch=on_epoch)
        except _StopTraining:
            pass
        except BudgetExceeded:
            timeout = True
        except Exception as exc:  # DivergenceDetected and the like fail the epoch in progress
            crash = error_text(exc)

        ops = []
        for k in range(len(stamps) - 1):
            fails = gates.epoch_loss(losses[k + 1])
            ops.append(OpRecord(stamps[k + 1] - stamps[k], not fails, bool(k % 2 and tracer.enabled),
                                "; ".join(fails) or None))
        if crash is not None:
            ops.append(OpRecord(math.inf, False, False, crash))
        elif ops and not timeout:
            fails = self.final_gate(losses, last[0])
            if fails:
                ops[-1] = OpRecord(ops[-1].latency, False, ops[-1].traced, "; ".join(fails))
        return finish(ops, timeout, self.min_ops)

    def final_gate(self, losses, net):
        """Outside the timed phase: loss went down, gradient against finite
        differences on a few arrows, factorization on a probe input."""
        rng = gen.rng_for(self.name, self.seed, gen.PROBE)
        groups = {}  # one group per layer of weights and per bias vertex
        for a in self.q.arrows:
            groups.setdefault(a.id.split("_")[0], []).append(a.id)
        arrows = [ids[rng.integers(len(ids))] for ids in groups.values()]
        rest = [a.id for a in self.q.arrows if a.id not in arrows]
        arrows += [rest[i] for i in rng.choice(len(rest), FD_ARROWS - len(arrows), replace=False)]
        per_sample = [grad.backprop(net, x, y, "mse").weights for x, y in self.data]
        grads = {a: float(np.mean([g[a] for g in per_sample])) for a in arrows}
        x = rng.standard_normal(len(net.input_vertices))
        psi = network.psi_hat(network.knowledge_map(net, x))
        return gates.mlp_final(losses, dict(net.weights.weights), grads, self.data, arrows, psi, x)

    def probe_inputs(self):
        rng = gen.rng_for(self.name, self.seed, gen.PROBE)
        thin = self.net.weights
        return ProbeInputs(self.q, thin.to_triple(), thin, thin.to_representation(), self.net,
                           self.data, positive_gauge(rng, self.q), [positive_triple(thin)])


WORKLOADS = {w.name: w for w in (ModuliDeep, ModuliDense, TrainMlp, ReluBalance)}


def probe_samples(rng, net):
    n_in, n_out = len(net.input_vertices), len(net.output_vertices)
    return [(rng.standard_normal(n_in), rng.standard_normal(n_out)) for _ in range(gen.PROBE_SAMPLES)]


def positive_gauge(rng, q):
    return {v: np.array([[math.exp(rng.uniform(-0.7, 0.7))]]) for v in q.hidden}


def positive_triple(thin):
    """Thin triple with weights |w| + 0.5, so every hidden vertex balances."""
    return thincat.ThinRep(thin.quiver, {a: abs(w) + 0.5 for a, w in thin.weights.items()}).to_triple()


# --- standalone layer probes ----------------------------------------------------


def _repeat(tr, name, fn, budget=0.3, max_reps=5):
    """Call fn under span `name` until max_reps calls or budget seconds."""
    start = perf_counter()
    for _ in range(max_reps):
        out = tr.call(name, fn)
        if perf_counter() - start >= budget:
            break
    return out


def run_probes(p, tr):
    """Time every layer on the workload's own inputs, including the layers its
    op does not use, and record the counts the per-layer metrics need."""
    q, t = p.quiver, p.triple
    tr.begin("probe", op="probe")
    _repeat(tr, "quiver.build", lambda: quiver.Quiver(q.vertices, q.arrows, dict(q.roles), q.network))
    _repeat(tr, "rep.split", lambda: rep.split(p.representation))
    _repeat(tr, "thincat.to_triple", p.thin.to_triple)
    paths = _repeat(tr, "quiver.enumerate", lambda: quiver.all_hidden_paths(q.hidden_quiver()))
    tr.count("quiver.hidden_paths", sum(len(v) for v in paths.values()))
    m = _repeat(tr, "moduli.project", lambda: moduli.project(t))
    tr.count("moduli.blocks", len(m.blocks))
    _repeat(tr, "moduli.assembled", m.assembled)
    _repeat(tr, "moduli.rank_vector", m.rank_vector)
    elems = 0
    for i in q.hidden:
        block = tr.call("moduli.vertex_block", m.vertex_block, i)
        tr.call("linalg.num_rank", linalg.num_rank, block)
        elems += block.size
    tr.count("linalg.block_elems", elems)
    _repeat(tr, "moduli.is_simple", lambda: moduli.is_simple(t))
    _repeat(tr, "moduli.closed_orbit", lambda: moduli.closed_orbit_representative(m))
    _repeat(tr, "rep.act", lambda: rep.act(p.gauge, t))
    net = p.net
    _repeat(tr, "network.net_build", lambda: network.NeuralNetwork(
        thincat.ThinRep(q, dict(net.weights.weights)), dict(net.activations), net.bias))
    for x, y in p.samples:
        tr.call("network.forward", network.forward, net, x)
        tr.call("grad.backprop", grad.backprop, net, x, y, "mse")
    _repeat(tr, "grad.batch_loss", lambda: grad.batch_loss(net, p.samples, "mse"))
    _repeat(tr, "relu.momentum", lambda: relu.momentum(t))
    for bt in p.balance:
        r = tr.call("relu.balance", relu.balance, bt, 0.0)
        tr.count("relu.sweeps", r.sweeps)
    tr.end()
