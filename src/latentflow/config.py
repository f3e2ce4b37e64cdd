"""Flat key-value run configuration.

Grammar (one setting per line):

    # comment
    key = value

Keys are the ``RunConfig`` field names; values are parsed by the field's
type (int, float, or string). Unknown keys and malformed values are
rejected. Command-line flags override file values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .model import TrainConfig
from .schedules import SCHEDULES
from .solvers import SolverSpec

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "load_config", "train_config_from"]


class ConfigError(ValueError):
    """Malformed configuration file, value, or dataset/solver spec."""


@dataclass
class RunConfig:
    # dataset: "toy" | "toy_control" | "csv:<path>" | "synth:<n>,<d_x>[,<seed>]"
    dataset: str = "toy"
    task: str = "regression"
    num_classes: int = 0  # 0 = infer from csv labels; csv classification only
    x_cols: str = ""
    y_cols: str = ""
    standardize: str = "auto"  # auto = on except for toy datasets
    val_split: float = 0.0  # fraction held out for validation; 0 disables
    split_seed: int = 0
    schedule: str = "linear"
    latent_dim: int = 0  # 0 = 2 * max(d_x, d_y) + 2
    enc_hidden: int = 64
    enc_depth: int = 2
    dyn_hidden: int = 64
    dyn_depth: int = 3
    iterations: int = 5000
    batch_size: int = 128
    lr: float = 1e-3
    lr_schedule: str = "cosine"
    t_zero_prob: float = 0.1
    label_noise_std: float = 0.1
    seed: int = 0
    eval_interval: int = 1000
    patience: int = 10
    log_every: int = 1
    solver: str = "euler:1"
    out: str = "runs/latest"
    node_steps: int = 8
    node_lr: float = 0.0  # 0 = reuse lr; the unrolled baseline often needs its own rate

    def validate(self) -> "RunConfig":
        """Check every value; the trainer and solver settings are checked by
        building them, so each of their rules lives in one place."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in _AT_LEAST_ZERO:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.t_zero_prob <= 1.0:
            raise ConfigError(f"t_zero_prob must be in [0, 1], got {self.t_zero_prob}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}; expected one of {sorted(SCHEDULES)}")
        if self.task not in ("regression", "classification"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == "classification" and not self.dataset.startswith("csv:"):
            raise ConfigError(f"task = classification needs a csv dataset, got {self.dataset!r}")
        if self.num_classes > 0 and self.task != "classification":
            raise ConfigError(f"num_classes = {self.num_classes} needs task = classification")
        if self.standardize not in ("auto", "on", "off"):
            raise ConfigError(f"standardize must be auto|on|off, got {self.standardize!r}")
        if not 0.0 <= self.val_split < 1.0:
            raise ConfigError(f"val_split must be in [0, 1), got {self.val_split}")
        try:
            train_config_from(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.dataset_source()
        return self

    def dataset_source(self) -> tuple[str, tuple]:
        """Parse ``dataset`` into a source kind and the arguments of its loader.

        Returns ("toy", (crossing,)), ("csv", (path,)) or ("synth", (n, d_x,
        seed)), where a synth spec without a seed takes ``self.seed``. Raises
        ConfigError for a malformed spec, a missing csv file, or a csv spec
        without x_cols and y_cols.
        """
        spec = self.dataset
        if spec in ("toy", "toy_control"):
            return "toy", (spec == "toy",)
        if spec.startswith("csv:"):
            path = spec[4:]
            if not _is_file(Path(path)):
                raise ConfigError(f"csv dataset file not found: {path}")
            if not self.x_cols.strip() or not self.y_cols.strip():
                raise ConfigError("csv datasets need x_cols and y_cols")
            return "csv", (path,)
        if spec.startswith("synth:"):
            parts = spec[len("synth:"):].split(",")
            if len(parts) not in (2, 3):
                raise ConfigError(f"synth spec needs n,d_x[,seed], got {spec!r}")
            try:
                values = [int(p) for p in parts]
            except ValueError:
                raise ConfigError(f"synth spec needs integers, got {spec!r}") from None
            if values[0] < 2 or values[1] < 1 or min(values) < 0:
                raise ConfigError(f"synth spec needs n >= 2, d_x >= 1 and seed >= 0, got {spec!r}")
            return "synth", (values[0], values[1], values[2] if len(values) == 3 else self.seed)
        raise ConfigError(f"unknown dataset spec {spec!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_AT_LEAST_ONE = ("enc_hidden", "enc_depth", "dyn_hidden", "dyn_depth", "node_steps")
# node_lr = 0 and latent_dim = 0 select defaults; seeds must be >= 0 for numpy
_AT_LEAST_ZERO = ("num_classes", "split_seed", "latent_dim", "label_noise_std", "seed", "node_lr")


def train_config_from(cfg: RunConfig) -> TrainConfig:
    """The trainer settings of ``cfg``; raises ValueError for an invalid one."""
    return TrainConfig(
        iterations=cfg.iterations,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        lr_schedule=cfg.lr_schedule,
        p_zero=cfg.t_zero_prob,
        sigma=cfg.label_noise_std,
        seed=cfg.seed,
        eval_interval=cfg.eval_interval,
        patience=cfg.patience,
        eval_solver=SolverSpec.parse(cfg.solver),
        log_every=cfg.log_every,
    )


def _is_file(path: Path) -> bool:
    try:
        return path.is_file()
    except OSError:  # e.g. a name too long for the file system
        return False


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        kind = _FIELDS[key]
        try:
            if kind in (int, "int"):
                values[key] = int(value)
            elif kind in (float, "float"):
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: cannot parse {value!r} as {kind} for key {key!r}"
            ) from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not _is_file(path):
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))
