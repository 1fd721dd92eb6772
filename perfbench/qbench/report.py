"""Metric definitions and their computation from a run's records and trace."""

import math
import os
import platform
import resource
import statistics

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Reported with --trace 0.  failed_ratio and op_p50_ms are reported too, in
# the text report and result file, but carry no bound:
# - the JSON has ok_ratio = 1 - failed_ratio instead, because a metric that is
#   0 on a healthy run has no median to bound a regression by;
# - on a host that alternates between a fast and a slow phase of about 30 s,
#   the median of a run falls in one mode or the other, and its spread over
#   ten runs reached 0.27 of the median (moduli-dense), above any allowed
#   bound.  ops_per_s (the mean) and the p90 tail mix the modes smoothly.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# Reported with --trace 1.  Times are the median duration of one call of the
# span, over every call in the traced run (ops, set-up and probes).
PER_LAYER = (
    ("quiver.build_ms", "ms"),
    ("io.load_ms", "ms"),
    ("rep.split_ms", "ms"),
    ("thincat.to_triple_ms", "ms"),
    ("quiver.hidden_paths", "count"),
    ("quiver.enumerate_ms", "ms"),
    ("moduli.project_ms", "ms"),
    ("moduli.blocks", "count"),
    ("moduli.block_ratio", "ratio"),
    ("moduli.assembled_ms", "ms"),
    ("moduli.rank_vector_ms", "ms"),
    ("moduli.vertex_block_ms", "ms"),
    ("linalg.num_rank_ms", "ms"),
    ("linalg.block_elems", "count"),
    ("moduli.is_simple_ms", "ms"),
    ("moduli.closed_orbit_ms", "ms"),
    ("rep.act_ms", "ms"),
    ("network.forward_ms", "ms"),
    ("grad.backprop_ms", "ms"),
    ("grad.batch_loss_ms", "ms"),
    ("network.net_build_ms", "ms"),
    ("relu.balance_ms", "ms"),
    ("relu.sweeps", "count"),
    ("relu.ms_per_sweep", "ms"),
    ("relu.momentum_ms", "ms"),
    ("trace.overhead_ops_per_s", "1/s"),
)

# op_tail_ms is p90: every run measures at least workloads.MIN_OPS = 100 ops,
# so at least 10 lie beyond it.  A percentile that moved with the op count
# flipped between p90 and p95 from run to run near 200 ops, and p99 (11-15
# ops beyond it) moved by half its median between runs of the same code on a
# shared 2-core host.  Shorter runs, cut off by their budget, fall back down
# the ladder.
TAIL_LADDER = (90, 75, 50)
TAIL_BEYOND = 10


def tail_percentile(n):
    """Highest percentile of the ladder that leaves at least TAIL_BEYOND
    samples above it; None below 2 * TAIL_BEYOND samples."""
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return None


def nearest_rank(sorted_values, p):
    return sorted_values[max(math.ceil(p * len(sorted_values) / 100) - 1, 0)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(run, rss_mb, budget):
    """Metrics of one untraced run.  A failed or unattempted op counts as
    slower than every op that passed; where a percentile lands on one, the
    latency reported is the budget."""
    ops = run.ops
    attempted = len(ops) + run.unattempted
    failed = sum(not o.ok for o in ops) + run.unattempted
    lat = sorted([o.latency for o in ops if o.ok] + [math.inf] * failed)
    busy = sum(o.latency for o in ops if math.isfinite(o.latency))
    p = tail_percentile(len(lat)) or 50

    def ms(v):
        return 1000.0 * (v if math.isfinite(v) else budget)

    return {
        "ops_per_s": (attempted - failed) / busy if busy > 0 else 0.0,
        "op_tail_ms": ms(nearest_rank(lat, p)),
        "peak_rss_mb": rss_mb,
        "ok_ratio": 1.0 - failed / attempted,
    }, {
        "op_p50_ms": ms(nearest_rank(lat, 50)),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "tail_percentile": p,
        "tail_beyond": len(lat) - math.ceil(p * len(lat) / 100),
        "samples": len(lat),
        "timeout": run.timeout,
        "errors": [o.error for o in ops if not o.ok][:5],
    }


def throughput(ops, traced):
    sel = [o for o in ops if o.traced == traced and math.isfinite(o.latency)]
    busy = sum(o.latency for o in sel)
    return sum(o.ok for o in sel) / busy if busy > 0 else 0.0


def per_layer(tr, ops):
    """Per-layer metrics of a traced run; counts come from the probes, whose
    inputs are fixed by the seed, so they repeat exactly."""
    out = {}
    for name, unit in PER_LAYER:
        if unit == "ms" and name.endswith("_ms"):
            out[name] = tr.median_ms(name[: -len("_ms")])

    def probe_mean(name):
        values = tr.count_values(name, ops={"probe"})
        return statistics.fmean(values) if values else None

    for name in ("quiver.hidden_paths", "moduli.blocks", "linalg.block_elems", "relu.sweeps"):
        out[name] = probe_mean(name)
    paths, blocks = out["quiver.hidden_paths"], out["moduli.blocks"]
    out["moduli.block_ratio"] = blocks / paths if paths and blocks is not None else None
    sweeps = sum(tr.count_values("relu.sweeps"))
    out["relu.ms_per_sweep"] = 1000.0 * sum(tr.durations("relu.balance")) / sweeps if sweeps else None
    out["trace.overhead_ops_per_s"] = throughput(ops, False) - throughput(ops, True)
    return out


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }
