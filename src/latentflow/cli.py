"""Command-line entry point: train, eval, diagnose, compare, toy.

stdout carries machine-readable JSON only (eval/diagnose/compare); all
human-readable progress goes to stderr, at the level LATENTFLOW_LOG names:
debug|info|warning|quiet, in any letter case; any other value exits 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import nn
from .config import ConfigError, RunConfig, load_config
from .data import (
    DataError,
    PairedDataset,
    TaskKind,
    apply_normalization,
    load_csv,
    split,
    standardize,
    synth_regression,
    toy_crossing,
)
from .diagnostics import build_report, write_report
from .model import (
    LatentFlowModel,
    ModelSpec,
    TrainingAbort,
    build_direct_fm,
    build_model,
    build_node_baseline,
    direct_fm_train,
    evaluate_metric,
    load_model_params,
    mse,
    node_baseline_train,
    train,
    write_run_files,
)
from .solvers import SolverError, SolverSpec

log = logging.getLogger("latentflow")

_LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "quiet": logging.CRITICAL,
}


def _configure_logging() -> None:
    value = os.environ.get("LATENTFLOW_LOG", "info")
    level = _LOG_LEVELS.get(value.lower())
    logging.basicConfig(stream=sys.stderr, level=level or logging.INFO,
                        format="%(levelname)s %(message)s")
    if level is None:
        raise ConfigError(f"LATENTFLOW_LOG must be one of {'|'.join(_LOG_LEVELS)}, got {value!r}")


def resolve_dataset(cfg: RunConfig) -> PairedDataset:
    kind, args = cfg.dataset_source()
    if kind == "toy":
        return toy_crossing(*args)
    if kind == "synth":
        return synth_regression(*args)
    x_cols = [c.strip() for c in cfg.x_cols.split(",") if c.strip()]
    y_cols = [c.strip() for c in cfg.y_cols.split(",") if c.strip()]
    # load_csv infers the class count when num_classes is 0
    task = TaskKind.classification(cfg.num_classes) if cfg.num_classes else cfg.task
    return load_csv(*args, x_cols, y_cols, task)


def prepare_splits(cfg: RunConfig, ds: PairedDataset) -> tuple[PairedDataset, PairedDataset | None]:
    """Optional validation split, then the config's one normalization decision;
    normalization stats always come from train data."""
    wants_norm = cfg.standardize == "on" or (
        cfg.standardize == "auto" and not cfg.dataset.startswith("toy")
    )
    if cfg.val_split > 0.0:
        return split(ds, 1.0 - cfg.val_split, cfg.split_seed, normalize=wants_norm)
    return (standardize(ds) if wants_norm else ds), None


def model_spec_from(cfg: RunConfig, ds: PairedDataset) -> ModelSpec:
    return ModelSpec(
        d_x=ds.d_x,
        d_y=ds.d_y,
        task=ds.task,
        schedule=cfg.schedule,
        latent_dim=cfg.latent_dim if cfg.latent_dim > 0 else None,
        enc_hidden=cfg.enc_hidden,
        enc_depth=cfg.enc_depth,
        dyn_hidden=cfg.dyn_hidden,
        dyn_depth=cfg.dyn_depth,
    )


def _normalization_dict(ds: PairedDataset) -> dict:
    return {
        "x_mean": ds.x_mean.tolist(),
        "x_std": ds.x_std.tolist(),
        "y_mean": ds.y_mean.tolist(),
        "y_std": ds.y_std.tolist(),
    }


def _environment() -> dict:
    """Python, numpy and BLAS versions: the BLAS sets the last bits of every product.

    The BLAS reads "unknown" where numpy cannot name it (``show_config`` takes
    ``mode`` only from numpy 1.26 on), so provenance never fails a finished run.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name}


def _overridden(cfg: RunConfig, args) -> RunConfig:
    """``cfg`` with the values of the flags given, checked again."""
    return dataclasses.replace(cfg, **{
        attr: value for attr in ("seed", "out", "solver", "dataset")
        if (value := getattr(args, attr, None)) is not None})


def cmd_train(args) -> int:
    cfg = _overridden(load_config(args.config), args)
    ds = resolve_dataset(cfg)
    train_ds, val_ds = prepare_splits(cfg, ds)
    spec = model_spec_from(cfg, train_ds)
    model = build_model(spec, cfg.seed)
    solver = SolverSpec.parse(cfg.solver)

    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    train_log = train(model, train_ds, cfg, val_ds)
    wall = time.perf_counter() - t0
    log.info("training finished: %d logged steps in %.1fs", len(train_log.entries), wall)

    final: dict = {"stopped_early": train_log.stopped_early, "best_val": train_log.best_val}
    if cfg.iterations > 0:
        metric, nfe = evaluate_metric(model, train_ds, solver)
        final["train_metric"] = metric
        final["train_nfe"] = nfe
        if val_ds is not None:
            final["val_metric"] = evaluate_metric(model, val_ds, solver)[0]
    # the output path is an invocation detail, not part of the experiment
    # record; dropping it keeps manifests byte-reproducible across runs
    recorded_cfg = {k: v for k, v in cfg.to_dict().items() if k != "out"}
    manifest = {
        "command": "train",
        "config": recorded_cfg,
        "model_spec": spec.to_dict(),
        "normalization": _normalization_dict(train_ds),
        "dims": {
            "d_x": train_ds.d_x,
            "d_y": train_ds.d_y,
            "latent": spec.resolved_latent_dim(),
            "n_train": train_ds.n,
            "n_val": val_ds.n if val_ds is not None else 0,
        },
        "seed": cfg.seed,
        "environment": _environment(),
        "final_metrics": final,
        "timing": {"started_at": started, "wall_clock_sec": wall},
    }

    # the manifest goes into place last
    write_run_files(cfg.out, {
        "checkpoint.json": lambda path: nn.save_checkpoint(path, model.named_parameters()),
        "train_log.jsonl": lambda path: path.write_text("".join(
            json.dumps(row, sort_keys=True) + "\n" for row in train_log.entries)),
        "manifest.json": lambda path: path.write_text(json.dumps(manifest, indent=2, sort_keys=True)),
    })
    log.info("wrote checkpoint, manifest and log to %s", cfg.out)
    return 0


class DimensionMismatch(RuntimeError):
    pass


class NonFiniteResult(RuntimeError):
    """A metric or report value is NaN or infinite, so it has no JSON form."""


def _json_line(result) -> str:
    try:
        return json.dumps(result, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResult("a metric or report value is NaN or infinite") from None


def _stats(normalization: dict, key: str, n: int) -> np.ndarray:
    """The recorded normalization stat ``key``: a list of ``n`` finite numbers."""
    values = normalization[key]
    if not (isinstance(values, list) and len(values) == n
            and all(type(v) in (int, float) for v in values) and np.isfinite(values).all()):
        raise ValueError(f"normalization {key} must be a list of {n} finite numbers")
    return np.array(values, dtype=np.float64)


def _load_run(args) -> tuple[LatentFlowModel, PairedDataset, RunConfig]:
    """The model of the run directory ``args.checkpoint``, and the dataset named
    on the command line (or in the run's config) with its dims checked against
    the checkpoint and the training-time normalization applied. Also returns
    the overridden config. A malformed manifest value is a CheckpointError
    naming the manifest; a bad flag stays a ConfigError."""
    checkpoint_dir = Path(args.checkpoint)
    manifest_path = checkpoint_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"no manifest.json under {checkpoint_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
        spec = ModelSpec.from_dict(manifest["model_spec"])
        cfg = RunConfig(**manifest["config"])
        norm = [_stats(manifest["normalization"], k, n) for k, n in (
            ("x_mean", spec.d_x), ("x_std", spec.d_x), ("y_mean", spec.d_y), ("y_std", spec.d_y))]
    except json.JSONDecodeError as exc:
        raise nn.CheckpointError(f"{manifest_path}: not valid JSON ({exc})") from None
    except KeyError as exc:
        raise nn.CheckpointError(f"{manifest_path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise nn.CheckpointError(f"{manifest_path}: {exc}") from None
    model = load_model_params(checkpoint_dir / "checkpoint.json", spec)
    cfg = _overridden(cfg, args)
    ds = resolve_dataset(cfg)
    if ds.d_x != spec.d_x or ds.d_y != spec.d_y:
        raise DimensionMismatch(
            f"dataset dims ({ds.d_x}, {ds.d_y}) do not match checkpoint dims "
            f"({spec.d_x}, {spec.d_y})"
        )
    return model, apply_normalization(ds, *norm), cfg


def cmd_eval(args) -> int:
    model, ds, cfg = _load_run(args)
    metric, nfe = evaluate_metric(model, ds, SolverSpec.parse(cfg.solver))
    print(_json_line({"metric": metric, "nfe_mean": float(nfe)}))
    return 0


def cmd_diagnose(args) -> int:
    model, ds, _ = _load_run(args)
    report = build_report(model, ds)
    line = _json_line(report)  # before any file is written
    out_dir = Path(args.out) if args.out else Path(args.checkpoint)
    write_report(report, out_dir)
    print(line)
    log.info("wrote diagnostics to %s", out_dir)
    return 0


def run_comparison(cfg: RunConfig) -> dict:
    """Train the latent model, the data-space velocity-regression control, and
    the unrolled-solver baseline on one dataset; tabulate cost and accuracy."""
    ds = resolve_dataset(cfg)
    train_ds, _ = prepare_splits(cfg, ds)
    is_cls = train_ds.task.is_classification
    specs = {
        "metric_euler1": SolverSpec.euler(1),
        f"metric_euler{cfg.node_steps}": SolverSpec.euler(cfg.node_steps),
        "metric_dopri5": SolverSpec.dopri5(),
    }
    node_cfg = cfg if cfg.node_lr <= 0 else dataclasses.replace(cfg, lr=cfg.node_lr)
    baseline = dict(hidden=cfg.dyn_hidden, depth=cfg.dyn_depth, seed=cfg.seed)
    methods = (
        ("latent_fm", build_model(model_spec_from(cfg, train_ds), cfg.seed),
         lambda m: train(m, train_ds, cfg)),
        ("direct_fm", build_direct_fm(train_ds.d_x, train_ds.d_y, train_ds.task,
                                      schedule=cfg.schedule, **baseline),
         lambda m: direct_fm_train(m, train_ds, cfg)),
        (f"node_euler{cfg.node_steps}",
         build_node_baseline(train_ds.d_x, train_ds.d_y, train_ds.task, **baseline),
         lambda m: node_baseline_train(m, train_ds, node_cfg)),
    )
    rows = []
    for method, model, trainer in methods:
        t0 = time.perf_counter()
        train_log = trainer(model)
        row = {"method": method, "train_nfe_per_step": train_log.final_train_nfe_per_step,
               "wall_clock_sec": time.perf_counter() - t0}
        for name, solver in specs.items():
            if is_cls:
                row[name] = evaluate_metric(model, train_ds, solver)[0]
            else:
                row[name] = mse(model.predict_raw(train_ds.x, solver)[0], train_ds.y)
        rows.append(row)
    return {"dataset": cfg.dataset, "metric_kind": "accuracy" if is_cls else "mse",
            "metric_columns": list(specs), "rows": rows}


def _format_table(table: dict) -> str:
    headers = ["method", "train_nfe_per_step", *table["metric_columns"], "wall_clock_sec"]
    lines = ["  ".join(f"{h:>18}" for h in headers)]
    for row in table["rows"]:
        cells = [row["method"], f"{row['train_nfe_per_step']:.1f}",
                 *(f"{row[m]:.4g}" for m in table["metric_columns"]),
                 f"{row['wall_clock_sec']:.2f}"]
        lines.append("  ".join(f"{c:>18}" for c in cells))
    return "\n".join(lines)


def cmd_compare(args) -> int:
    cfg = _overridden(load_config(args.config), args)
    table = run_comparison(cfg)
    line = _json_line(table)
    write_run_files(cfg.out, {"comparison.json": lambda path: path.write_text(
        json.dumps(table, indent=2, sort_keys=True))})
    print(line)
    print(_format_table(table), file=sys.stderr)
    return 0


def cmd_toy(args) -> int:
    ds = toy_crossing(args.variant == "crossing")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x0", "x1", "y0", "y1"])
    for i in range(ds.n):
        writer.writerow([repr(float(v)) for v in (*ds.x[i], *ds.y[i])])
    sys.stdout.write(buf.getvalue())
    return 0


# The flags each subcommand reads; --seed, --out, --solver and --dataset
# override the config value of the same name.
_FLAGS = {
    "config": dict(required=True, help="flat key=value config file"),
    "checkpoint": dict(required=True, help="directory written by train"),
    "seed": dict(type=int),
    "out": {},
    "solver": {},
    "dataset": {},
}
_COMMANDS = (
    ("train", "train a latent flow model", cmd_train,
     ("config", "seed", "out", "solver", "dataset")),
    ("eval", "evaluate a checkpoint", cmd_eval, ("checkpoint", "seed", "solver", "dataset")),
    ("diagnose", "write the diagnostics report for a checkpoint", cmd_diagnose,
     ("checkpoint", "seed", "out", "dataset")),
    ("compare", "latent vs direct velocity regression vs unrolled solver", cmd_compare,
     ("config", "seed", "out", "dataset")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentflow",
        description="Simulation-free training of continuous-depth models on paired data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)

    p_toy = sub.add_parser("toy", help="print the canonical crossing dataset as CSV")
    p_toy.add_argument("--variant", choices=["crossing", "control"], default="crossing")
    p_toy.set_defaults(func=cmd_toy)
    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DataError, nn.CheckpointError) as exc:
        log.error("%s", exc)
        return 2
    except (TrainingAbort, SolverError, DimensionMismatch, NonFiniteResult, MemoryError) as exc:
        log.error("%s", str(exc) or "out of memory")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
