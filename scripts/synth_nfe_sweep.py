#!/usr/bin/env python3
"""Metric-over-NFE sweep across the three dynamics schedules.

Trains one model per schedule (linear / convex / concave) on the seeded
synthetic regression task, then reports validation RMSE for Euler solvers of
increasing step counts plus the adaptive solver. With the linear schedule the
curve is flat: a single Euler step already matches the many-step result. The
curved schedules need more evaluations before their error saturates.

Usage:
    python3 scripts/synth_nfe_sweep.py --out runs/nfe_sweep [--n 256 --d-x 2]
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import latentflow as lf  # noqa: E402
from latentflow.data import split  # noqa: E402
from latentflow.diagnostics import nfe_sweep  # noqa: E402

NFE_GRID = [1, 2, 4, 8, 16, 32, 64, 100]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/nfe_sweep")
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--d-x", type=int, default=2)
    parser.add_argument("--data-seed", type=int, default=11)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=10000)
    args = parser.parse_args()

    ds = lf.synth_regression(args.n, args.d_x, seed=args.data_seed)
    train_ds, val_ds = split(ds, 0.6, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for kind in ("linear", "convex", "concave"):
        spec = lf.ModelSpec(d_x=args.d_x, d_y=1, task=ds.task, schedule=kind,
                            enc_hidden=64, enc_depth=2, dyn_hidden=64, dyn_depth=3)
        model = lf.build_model(spec, seed=args.seed)
        cfg = lf.RunConfig(iterations=args.iterations, batch_size=128, lr=2e-3,
                           t_zero_prob=0.1, label_noise_std=0.1, seed=args.seed,
                           eval_interval=1000, patience=10, log_every=500)
        lf.train(model, train_ds, cfg, val_ds)
        rows = nfe_sweep(model, val_ds, model.embed(val_ds.x), NFE_GRID, {})
        path = out_dir / f"sweep_{kind}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["solver", "nfe", "rmse"])
            for row in rows:
                writer.writerow([row["solver"], row["nfe"], repr(row["metric"])])
        summary = "  ".join(f"{r['nfe']}:{r['metric']:.4f}" for r in rows)
        print(f"{kind:8s} {summary}")
        print(f"         wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
