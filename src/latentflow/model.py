"""Latent flow-matching model, its one training loop, inference, and baselines.

The model is four networks sharing a latent width d: a data encoder f
(x -> z0), a label encoder g (y -> z1), a label decoder d (z -> y), and a
time-conditioned dynamics function h (z, t -> velocity). Training regresses the
dynamics onto the schedule's target velocity between the *learned* endpoint
embeddings while a label autoencoding term keeps the label embedding
informative. Inference encodes x, integrates the dynamics from t=0 to t=1,
and decodes.

The two baselines are the same model with some parts fixed to parameter-free
column maps (`ColumnMap`) and their own loss; all three train through `fit`:

- direct flow matching regresses the velocity between zero-padded data-space
  endpoints (f and g pad to max(d_x, d_y), d keeps the first d_y columns), and
  fails whenever the data-space chords cross;
- the unrolled NODE keeps its state in data space (f is the identity) and
  backpropagates a supervised loss through a ``node_steps`` Euler solve, at
  ``node_steps`` dynamics evaluations per step.

`LatentFlowModel.flow` is the one inference path: `eval`, `train`'s
validation and final metrics, `compare` and `diagnose` all solve through it.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import nn
from .config import RunConfig, check_choice, check_value
from .data import PairedDataset, TaskKind, denormalize_y
from .nn import AdamState, CheckpointError, ColumnMap, Mlp, adam_step
from .objectives import LossBreakdown, TimeSampler, flow_loss, total_loss
from .schedules import SCHEDULES, Schedule, get_schedule
from .solvers import SolveResult, SolverSpec, _row_blocks, solve, solve_with_grad
from .tensor import Tensor, backward, mean_all, no_grad, sq_diff_rowsum

__all__ = [
    "ModelSpec",
    "LatentFlowModel",
    "build_model",
    "load_model_params",
    "TrainingAbort",
    "TrainLog",
    "fit",
    "train",
    "evaluate_metric",
    "output_metric",
    "rmse",
    "mse",
    "accuracy",
    "build_node_baseline",
    "node_baseline_train",
    "build_direct_fm",
    "direct_fm_train",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; serializable into the run manifest.

    ``latent_dim=None`` resolves to 2 * max(d_x, d_y) + 2, which keeps the
    latent strictly wider than both observation spaces (the regime where
    non-crossing embeddings are guaranteed to exist). Label encoder and
    decoder are single linear layers.
    """

    d_x: int
    d_y: int
    task: TaskKind
    schedule: str = "linear"
    latent_dim: int | None = None
    enc_hidden: int = 64
    enc_depth: int = 2
    dyn_hidden: int = 64
    dyn_depth: int = 3

    def __post_init__(self):
        for name in ("d_x", "d_y", "enc_hidden", "enc_depth", "dyn_hidden", "dyn_depth"):
            check_value(name, getattr(self, name), "int", 1)
        if self.latent_dim is not None:
            check_value("latent_dim", self.latent_dim, "int", 1)
        check_choice("schedule", self.schedule, SCHEDULES)

    def resolved_latent_dim(self) -> int:
        if self.latent_dim is not None:
            return self.latent_dim
        return 2 * max(self.d_x, self.d_y) + 2

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["task"] = {"kind": self.task.kind, "num_classes": self.task.num_classes}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        d = dict(d)
        t = d.pop("task")
        # older manifests record the activations, which were always these
        for name, value in (("enc_activation", "relu"), ("dyn_activation", "tanh")):
            check_choice(name, d.pop(name, value), (value,))
        return cls(task=TaskKind(t["kind"], t.get("num_classes")), **d)


class LatentFlowModel:
    """The four networks plus the schedule; see the module docstring.

    Any of f, g and d may be a `ColumnMap` (the baselines); h is always an Mlp.
    """

    def __init__(self, spec: ModelSpec, data_encoder: Mlp | ColumnMap,
                 label_encoder: Mlp | ColumnMap, label_decoder: Mlp | ColumnMap,
                 dynamics: Mlp):
        d = spec.resolved_latent_dim()
        if not (data_encoder.d_out == label_encoder.d_out == dynamics.d_out == d
                and dynamics.d_in == d and label_decoder.d_in == d):
            raise ValueError("all four networks must agree on the latent width")
        self.spec = spec
        self.data_encoder = data_encoder
        self.label_encoder = label_encoder
        self.label_decoder = label_decoder
        self.dynamics = dynamics
        self.schedule: Schedule = get_schedule(spec.schedule)

    @property
    def task(self) -> TaskKind:
        return self.spec.task

    def encode_data(self, x) -> Tensor:
        return self.data_encoder.forward(x)

    def encode_label(self, y) -> Tensor:
        return self.label_encoder.forward(y)

    def decode_label(self, z) -> Tensor:
        return self.label_decoder.forward(z)

    def velocity(self, z, t) -> Tensor:
        return self.dynamics.forward(z, t)

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return (self.data_encoder.named_parameters() + self.label_encoder.named_parameters()
                + self.label_decoder.named_parameters() + self.dynamics.named_parameters())

    def embed(self, x) -> np.ndarray:
        """The data embedding z0 = f(x), computed off the tape over ``solve``'s
        row blocks. On OpenBLAS 0.3.31 it has the whole-array bits when every
        layer of f has at least three output columns (see ``solvers``)."""
        x = np.asarray(x, dtype=np.float64)
        blocks = _row_blocks(len(x))
        with no_grad():
            first = self.encode_data(x[blocks[0]]).data  # its width: stubs have no f
            z0 = np.empty((len(x), first.shape[1]))
            z0[blocks[0]] = first
            for rows in blocks[1:]:
                z0[rows] = self.encode_data(x[rows]).data
        return z0

    def flow(self, z0: np.ndarray, solver_spec: SolverSpec) -> tuple[np.ndarray, SolveResult]:
        """Integrate the dynamics from z0 over [0, 1] and decode the final state
        ``res.z_final``: the one inference path. No gradients. The decoder, one
        narrow layer, takes all rows at once: on OpenBLAS 0.3.31 the bits of a
        product with one or two output columns depend on the row count."""
        with no_grad():
            res = solve(lambda z, t: self.velocity(z, t).data, z0, 0.0, 1.0, solver_spec)
            return self.decode_label(res.z_final.data).data, res

    def predict_raw(self, x, solver_spec: SolverSpec) -> tuple[np.ndarray, SolveResult]:
        """``flow(embed(x), solver_spec)``: encode, integrate over [0, 1], decode."""
        return self.flow(self.embed(x), solver_spec)


def _dims(d_in: int, hidden: int, depth: int, d_out: int) -> Iterable[int]:
    """d_in, hidden x (depth - 1), d_out, lazily: no list as long as ``depth``."""
    return itertools.chain((d_in,), itertools.repeat(hidden, depth - 1), (d_out,))


def _build_dynamics(spec: ModelSpec, rng: np.random.Generator | None,
                    params: dict[str, np.ndarray] | None = None) -> Mlp:
    d = spec.resolved_latent_dim()
    return Mlp(_dims(d, spec.dyn_hidden, spec.dyn_depth, d), activation="tanh",
               time_conditioned=True, rng=rng, name="dyn", prefix="h.", params=params)


def _latent_model(spec: ModelSpec, rng: np.random.Generator | None = None,
                  params: dict[str, np.ndarray] | None = None) -> LatentFlowModel:
    """The networks of ``spec``, drawn from ``rng`` or taken out of ``params``."""
    d = spec.resolved_latent_dim()
    enc = dict(activation="relu", rng=rng, params=params)
    return LatentFlowModel(
        spec,
        Mlp(_dims(spec.d_x, spec.enc_hidden, spec.enc_depth, d), name="enc", prefix="f.", **enc),
        Mlp((spec.d_y, d), name="lenc", prefix="g.", **enc),
        Mlp((d, spec.d_y), name="ldec", prefix="d.", **enc),
        _build_dynamics(spec, rng, params))


def build_model(spec: ModelSpec, seed: int = 0) -> LatentFlowModel:
    return _latent_model(spec, rng=np.random.default_rng(seed))


def build_direct_fm(d_x: int, d_y: int, task: TaskKind, schedule: str = "linear",
                    hidden: int = 64, depth: int = 3, seed: int = 0) -> LatentFlowModel:
    """Direct flow matching: only h is learned, between zero-padded x and y."""
    d = max(d_x, d_y)
    spec = ModelSpec(d_x, d_y, task, schedule=schedule, latent_dim=d,
                     dyn_hidden=hidden, dyn_depth=depth)
    dynamics = _build_dynamics(spec, np.random.default_rng(seed))
    return LatentFlowModel(spec, ColumnMap(d_x, d), ColumnMap(d_y, d), ColumnMap(d, d_y),
                           dynamics)


def build_node_baseline(d_x: int, d_y: int, task: TaskKind, hidden: int = 64,
                        depth: int = 3, seed: int = 0) -> LatentFlowModel:
    """Unrolled NODE: state in data space, h and a linear decoder d are learned.

    g maps y to d_x columns only so the model is complete; training never uses it.
    """
    rng = np.random.default_rng(seed)
    spec = ModelSpec(d_x, d_y, task, latent_dim=d_x, dyn_hidden=hidden, dyn_depth=depth)
    dynamics = _build_dynamics(spec, rng)
    decoder = Mlp([d_x, d_y], activation="tanh", rng=rng, name="dec", prefix="d.")
    return LatentFlowModel(spec, ColumnMap(d_x, d_x), ColumnMap(d_y, d_x), decoder, dynamics)


def write_run_files(out_dir, writers: dict[str, Callable[[Path], None]]) -> None:
    """Write each named file of ``out_dir`` through its writer, atomically.

    Every writer writes a temporary name; only when all have returned are the
    files renamed into place, in the order given. So a writer that raises
    leaves no temporary file and every existing file as it was.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = {name: out_dir / f".{name}.tmp" for name in writers}
    try:
        for name, write in writers.items():
            write(tmp[name])
        for name, path in tmp.items():
            os.replace(path, out_dir / name)
    finally:
        for path in tmp.values():
            path.unlink(missing_ok=True)


def load_model_params(path, spec: ModelSpec) -> LatentFlowModel:
    """The latent model of ``spec`` made of the arrays of the checkpoint at ``path``,
    which must hold exactly its parameters; see `Mlp` for the order of checks."""
    loaded = nn.load_checkpoint(path)
    try:
        model = _latent_model(spec, params=loaded)
        if loaded:  # what the model did not take
            raise CheckpointError(f"unexpected parameter {next(iter(loaded))!r}")
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean(np.square(np.asarray(pred) - np.asarray(target))))


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.sqrt(mse(pred, target)))


def accuracy(pred_idx: np.ndarray, target_onehot: np.ndarray) -> float:
    return float(np.mean(pred_idx == np.argmax(target_onehot, axis=1)))


def output_metric(task: TaskKind, ds: PairedDataset, out: np.ndarray) -> float:
    """RMSE in original units for regression, accuracy for classification, of
    the raw decoder outputs ``out`` for the rows of ``ds``."""
    if task.is_classification:
        return accuracy(np.argmax(out, axis=1), ds.y)
    return rmse(denormalize_y(ds, out), denormalize_y(ds, ds.y))


def evaluate_metric(model, ds: PairedDataset, solver_spec: SolverSpec) -> tuple[float, int]:
    """``output_metric`` of the model's predictions at ``solver_spec``, and the NFE."""
    out, res = model.predict_raw(ds.x, solver_spec)
    return output_metric(model.task, ds, out), res.nfe


class TrainingAbort(RuntimeError):
    """Non-finite loss; carries the step index and the loss breakdown."""

    def __init__(self, step: int, breakdown: LossBreakdown):
        self.step = step
        self.breakdown = breakdown
        super().__init__(
            f"non-finite loss at step {step}: flow={breakdown.flow_loss!r} "
            f"label_ae={breakdown.label_ae_loss!r} total={breakdown.total!r}"
        )


@dataclass
class TrainLog:
    entries: list[dict]  # the train_log.jsonl rows
    stopped_early: bool = False
    best_val: float | None = None
    final_train_nfe_per_step: float = 0.0


# loss_fn(model, x, y, sampler, rng) -> (loss on the tape, its breakdown)
LossFn = Callable[[LatentFlowModel, np.ndarray, np.ndarray, TimeSampler, np.random.Generator],
                  tuple[Tensor, LossBreakdown]]


def _batch_indices(rng: np.random.Generator, n: int, batch_size: int) -> np.ndarray | None:
    # Full-batch regimes skip the RNG so logs stay stable across batch sizes.
    if batch_size >= n:
        return None
    return rng.choice(n, size=batch_size, replace=False)


def _improves(task: TaskKind, metric: float, best: float | None) -> bool:
    """Whether ``metric`` beats ``best``: higher accuracy, lower error."""
    return best is None or (metric > best if task.is_classification else metric < best)


def fit(model: LatentFlowModel, loss_fn: LossFn, train_ds: PairedDataset,
        cfg: RunConfig, val_ds: PairedDataset | None = None) -> TrainLog:
    """Minibatch Adam on ``loss_fn``: the one training loop of every method.

    Each step draws a minibatch, evaluates ``loss_fn`` on it and takes one Adam
    step at the scheduled rate. Batches, times and noise come from children 0,
    1 and 2 of ``SeedSequence(cfg.seed)``. A step's ``train_nfe`` is the number
    of dynamics calls measured around ``loss_fn``. With a validation set, the
    metric is checked every ``eval_interval`` steps and training stops after
    ``patience`` non-improving rounds, restoring the best-validation parameters.
    Validation solves with ``cfg.solver``.
    """
    if train_ds.d_x != model.spec.d_x or train_ds.d_y != model.spec.d_y:
        raise ValueError(
            f"dataset dims ({train_ds.d_x}, {train_ds.d_y}) do not match model "
            f"spec ({model.spec.d_x}, {model.spec.d_y})"
        )
    params = model.parameters()
    state = AdamState.for_params(params)
    batch_ss, time_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_batch = np.random.default_rng(batch_ss)
    rng_noise = np.random.default_rng(noise_ss)
    sampler = TimeSampler(cfg.t_zero_prob, seed=time_ss)
    solver = SolverSpec.parse(cfg.solver)

    entries: list[dict] = []
    best_snapshot: list[np.ndarray] | None = None
    best_val: float | None = None
    bad_rounds = 0
    stopped_early = False
    steps = total_nfe = 0

    for step in range(cfg.iterations):
        lr = cfg.lr_at(step)
        idx = _batch_indices(rng_batch, train_ds.n, cfg.batch_size)
        bx = train_ds.x if idx is None else train_ds.x[idx]
        by = train_ds.y if idx is None else train_ds.y[idx]
        calls = model.dynamics.calls
        loss_t, bd = loss_fn(model, bx, by, sampler, rng_noise)
        nfe = model.dynamics.calls - calls
        if not np.isfinite(bd.total):
            raise TrainingAbort(step, bd)
        grads = backward(loss_t, params)
        adam_step(params, grads, state, lr)
        steps += 1
        total_nfe += nfe

        val_metric = None
        if val_ds is not None and (step + 1) % cfg.eval_interval == 0:
            val_metric, _ = evaluate_metric(model, val_ds, solver)
            if _improves(model.task, val_metric, best_val):
                best_val = val_metric
                best_snapshot = [p.data.copy() for p in params]
                bad_rounds = 0
            else:
                bad_rounds += 1
        if step % cfg.log_every == 0 or val_metric is not None or step == cfg.iterations - 1:
            entries.append({"step": step, "lr": lr, "flow_loss": bd.flow_loss,
                            "ae_loss": bd.label_ae_loss, "val_metric": val_metric,
                            "train_nfe": nfe})
        if val_ds is not None and bad_rounds >= cfg.patience:
            stopped_early = True
            break

    if best_snapshot is not None:
        for p, snap in zip(params, best_snapshot):
            p.data = snap
    return TrainLog(entries, stopped_early=stopped_early, best_val=best_val,
                    final_train_nfe_per_step=total_nfe / max(steps, 1))


def _single_term(loss_t: Tensor) -> tuple[Tensor, LossBreakdown]:
    loss = loss_t.item()
    return loss_t, LossBreakdown(loss, 0.0, loss)


def train(model: LatentFlowModel, train_ds: PairedDataset, cfg: RunConfig,
          val_ds: PairedDataset | None = None) -> TrainLog:
    """Latent flow matching: flow loss plus label autoencoding, one dynamics
    evaluation per step."""

    def loss_fn(m, x, y, sampler, rng):
        return total_loss(m, x, y, sampler, cfg.label_noise_std, rng)

    return fit(model, loss_fn, train_ds, cfg, val_ds)


def direct_fm_train(model: LatentFlowModel, train_ds: PairedDataset,
                    cfg: RunConfig) -> TrainLog:
    """Train the dynamics alone on fixed data-space endpoints."""

    def loss_fn(m, x, y, sampler, rng):
        return _single_term(flow_loss(m, x, y, sampler.sample(x.shape[0])))

    return fit(model, loss_fn, train_ds, cfg)


def node_baseline_train(node: LatentFlowModel, train_ds: PairedDataset,
                        cfg: RunConfig) -> TrainLog:
    """Discretize-then-optimize supervised training of the unrolled baseline
    through ``cfg.node_steps`` Euler steps."""
    solver = SolverSpec.euler(cfg.node_steps)

    def loss_fn(m, x, y, sampler, rng):
        z1, _ = solve_with_grad(m.velocity, m.encode_data(x), 0.0, 1.0, solver)
        return _single_term(mean_all(sq_diff_rowsum(m.decode_label(z1), Tensor(y))))

    return fit(node, loss_fn, train_ds, cfg)
