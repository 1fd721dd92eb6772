#!/usr/bin/env python3
"""Train a small network and record the trajectory of its knowledge
representation through the coordinate space, checking the factorization
identity at every epoch.

    python3 scripts/train_trajectory.py --epochs 200 --out trajectory.jsonl
"""

import argparse
import json

import numpy as np

from qmn import examples, grad, moduli, network
from qmn.errors import SingularPreActivation


def rel_err(got, want):
    """max-norm relative error with a floor of 1 on the reference scale."""
    return float(np.abs(np.subtract(got, want)).max()) / max(float(np.abs(want).max()), 1.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--lr", type=float, default=0.05)
    ap.add_argument("--out", default=None, help="write one JSON row per epoch")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    net = examples.d4tilde_net(rng=rng, activation="tanh")
    data = [(rng.standard_normal(3), rng.standard_normal(2)) for _ in range(8)]
    probe = data[0][0]

    rows = []

    def on_epoch(epoch, current, value):
        out, _ = network.forward(current, probe)
        row = {"epoch": epoch, "loss": value}
        try:
            k = network.knowledge_map(current, probe)
            row["factorization_err"] = float(rel_err(network.psi_hat(k), out))
            point = moduli.project(k.to_triple())
            row["coords_norm"] = float(np.linalg.norm(point.assembled()))
        except SingularPreActivation:
            row["factorization_err"] = None
        rows.append(row)

    result = grad.train(net, data, "mse", lr=args.lr, epochs=args.epochs, on_epoch=on_epoch)
    print(f"loss: {result.losses[0]:.5f} -> {result.losses[-1]:.5f} over {args.epochs} epochs")
    errs = [r["factorization_err"] for r in rows if r["factorization_err"] is not None]
    print(f"factorization residual stayed below {max(errs):.2e} on {len(errs)} checked epochs")
    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"wrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
