#!/usr/bin/env python3
"""Benchmark of the qmn library.

    python3 perfbench/run.py --workload moduli-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; qmn is imported from its `src/`.
The parent process writes the seeded inputs under `.perfbench_work/`, then
starts fresh worker processes one after another.  With --trace 0: one that
sets up and runs the timed loop, and SETUP_PROCESSES - 1 that only set up
(for the setup_s median), half before it and half after.  With --trace 1: a
single worker that alternates traced and untraced ops and then runs the
standalone layer probes.  The last line of stdout is the result JSON; the
lines before it are a readable report.  Exit code 2 means the benchmark
could not run (no qmn source, bad arguments).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("moduli-deep", "moduli-dense", "train-mlp", "relu-balance")
SETUP_PROCESSES = 7  # setup_s is the median over this many fresh processes
TOTAL_LIMIT = 170.0  # seconds; the whole run ends before this
PROBE_BUDGET = 40.0  # seconds for the standalone probes of a traced run
SETUP_TIMEOUT = 30.0


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set by the parent for its worker processes
    ap.add_argument("--worker", choices=("setup", "run"), help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse(argv)
    from qbench.report import BLAS_VARS

    for var in BLAS_VARS:  # single-threaded BLAS in this process and its workers
        os.environ[var] = "1"
    if not (SRC / "qmn" / "__init__.py").is_file():
        print(f"perfbench: no qmn source under {SRC}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    return orchestrate(args)


# --- parent ------------------------------------------------------------------


def spawn(args, role, rundir, timeout, budget=0.0):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--worker", role, "--dir", str(rundir), "--budget", repr(budget)]
    cmd += ["--t0", repr(perf_counter())]  # CLOCK_MONOTONIC: shared with the child
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def orchestrate(args):
    start = perf_counter()
    from qbench import gen, report

    rundir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if rundir.exists():
        shutil.rmtree(rundir)
    gen.write_inputs(args.workload, args.seed, rundir / "inputs")
    # set-up probes before and after the timed loop, so the setup_s median
    # spans the run instead of one second of it
    probes = 0 if args.trace else SETUP_PROCESSES - 1
    setups = []
    try:
        for _ in range(probes // 2):
            setups.append(spawn(args, "setup", rundir, SETUP_TIMEOUT)["setup_s"])
        left = TOTAL_LIMIT - (perf_counter() - start)
        budget = min(max(60.0, 3.0 * args.seconds), left - PROBE_BUDGET - 20.0)
        res = spawn(args, "run", rundir, left, budget)
        setups.append(res["setup_s"])
        for _ in range(probes - probes // 2):
            left = TOTAL_LIMIT - (perf_counter() - start)
            setups.append(spawn(args, "setup", rundir, min(SETUP_TIMEOUT, left))["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info = res["info"]
    env = res["env"]
    if args.trace:
        names = report.PER_LAYER
        values = res["per_layer"]
    else:
        names = report.END_TO_END
        values = dict(res["end_to_end"], setup_s=statistics.median(setups))
    missing = [n for n, _ in names if values.get(n) is None]
    correct = info["failed"] == 0 and not missing

    print(f"# qmn benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# ops  attempted={info['attempted']} failed={info['failed']} "
          f"failed_ratio={info['failed_ratio']:.6g} timeout={info['timeout']}")
    for err in info["errors"]:
        print(f"# failure  {err}")
    if args.trace:
        print("# self time per op (ms), traced ops: "
              + "  ".join(f"{m}={v:.4g}" for m, v in res["self_ms_per_op"].items()))
        print(f"# tracing overhead  ops_per_s untraced={res['ops_per_s_untraced']:.6g} "
              f"traced={res['ops_per_s_traced']:.6g}")
        print(f"# trace written to {Path(res['trace_file']).relative_to(ROOT)}")
    else:
        print(f"# setup_s per process: {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"# op_tail_ms is p{info['tail_percentile']:g} of {info['samples']} ops "
              f"({info['tail_beyond']} beyond it)")
        print(f"# op_p50_ms = {info['op_p50_ms']:.6g} ms (reported, not bounded)")
    for name in missing:
        print(f"# missing metric {name}")
    for name, unit in names:
        if values.get(name) is not None:
            print(f"# {name} = {values[name]:.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {n: {"value": values.get(n) if values.get(n) is not None else 0.0, "unit": u}
                    for n, u in names},
    }
    with open(rundir / "result.json", "w") as fh:
        json.dump(dict(result, env=env, info=info, setup_s_each=setups,
                       worker={k: v for k, v in res.items() if k not in ("env", "info")}), fh, indent=1)
    print(json.dumps(result))
    return 0


# --- worker ------------------------------------------------------------------


def worker(args):
    sys.path.insert(0, str(SRC))
    from qbench import report, workloads
    from qbench.trace import NULL, Tracer
    import qmn

    if Path(qmn.__file__).resolve().parent != (SRC / "qmn").resolve():
        print(f"perfbench: imported qmn from {qmn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tr = Tracer() if args.trace else NULL
    wl = workloads.WORKLOADS[args.workload](Path(args.dir) / "inputs", args.seed)
    tr.begin("setup", op="setup")
    wl.setup(tr)
    tr.end()
    setup_s = perf_counter() - args.t0
    if args.worker == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = wl.run(args.seconds, args.budget, tr)
    rss = report.peak_rss_mb()
    e2e, info = report.end_to_end(run, rss, args.budget)
    out = {"setup_s": setup_s, "end_to_end": e2e, "info": info, "env": report.environment()}
    if args.trace:
        traced_ops = {k for k, o in enumerate(run.ops) if o.traced}
        try:
            with workloads.deadline(PROBE_BUDGET):
                workloads.run_probes(wl.probe_inputs(), tr)
        except workloads.BudgetExceeded:
            info["errors"].append("probes cut off by their budget")
        out["per_layer"] = report.per_layer(tr, run.ops)
        out["self_ms_per_op"] = tr.self_ms_per_op(traced_ops)
        out["ops_per_s_untraced"] = report.throughput(run.ops, False)
        out["ops_per_s_traced"] = report.throughput(run.ops, True)
        out["trace_file"] = str(Path(args.dir) / "trace.jsonl")
        tr.dump(out["trace_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
