"""Run settings: the one record of a run, and its flat key-value file format.

Grammar (one setting per line):

    # comment
    key = value

Keys are the ``RunConfig`` field names; values are parsed by the field's
type (int, float, or string). Unknown keys are rejected, and a ``RunConfig``
checks every value when it is built, so one that exists is valid; a file it
names is checked when it is read. Command-line flags override file values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .nn import cosine_lr
from .schedules import SCHEDULES
from .solvers import SolverSpec

__all__ = ["ConfigError", "RunConfig", "parse_config_text", "load_config"]


class ConfigError(ValueError):
    """Malformed configuration file, value, or dataset/solver spec."""


_KINDS = {"int": ((int,), "an int"), "float": ((int, float), "a number"), "str": ((str,), "a string")}


def check_value(name: str, value, kind: str, low=None) -> None:
    """Raise ConfigError unless ``value`` has type ``kind`` ("int", "float" or
    "str"; a bool is none of them), is finite, and is at least ``low``."""
    types, label = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {label}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")


def check_schedule(schedule) -> None:
    if not isinstance(schedule, str) or schedule not in SCHEDULES:
        raise ConfigError(f"unknown schedule {schedule!r}; expected one of {sorted(SCHEDULES)}")


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run; built only from valid values (see ``validate``)."""

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
    lr_schedule: str = "cosine"  # cosine | constant
    t_zero_prob: float = 0.1  # probability of sampling t = 0 exactly
    label_noise_std: float = 0.1  # stddev of the label-embedding noise
    seed: int = 0
    eval_interval: int = 1000
    patience: int = 10
    log_every: int = 1
    solver: str = "euler:1"  # validation, final-metric and eval solver
    out: str = "runs/latest"
    node_steps: int = 8
    node_lr: float = 0.0  # 0 = reuse lr; the unrolled baseline often needs its own rate

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check every value's type and domain; raises ConfigError naming the field."""
        for name, kind in _FIELDS.items():
            check_value(name, getattr(self, name), kind, _LOW.get(name))
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.lr_schedule not in ("cosine", "constant"):
            raise ConfigError(f"unknown lr_schedule {self.lr_schedule!r}")
        if not 0.0 <= self.t_zero_prob <= 1.0:
            raise ConfigError(f"t_zero_prob must be in [0, 1], got {self.t_zero_prob}")
        check_schedule(self.schedule)
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
            SolverSpec.parse(self.solver)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.dataset_source()

    def lr_at(self, step: int) -> float:
        if self.lr_schedule == "constant":
            return self.lr
        return cosine_lr(step, max(self.iterations, 1), self.lr)

    def dataset_source(self) -> tuple[str, tuple]:
        """Parse ``dataset`` into a source kind and the arguments of its loader.

        Returns ("toy", (crossing,)), ("csv", (path,)) or ("synth", (n, d_x,
        seed)), where a synth spec without a seed takes ``self.seed``. Raises
        ConfigError for a malformed spec or a csv spec without x_cols and
        y_cols; a missing csv file is reported when it is read.
        """
        spec = self.dataset
        if spec in ("toy", "toy_control"):
            return "toy", (spec == "toy",)
        if spec.startswith("csv:"):
            if not self.x_cols.strip() or not self.y_cols.strip():
                raise ConfigError("csv datasets need x_cols and y_cols")
            return "csv", (spec[4:],)
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
_AT_LEAST_ONE = ("enc_hidden", "enc_depth", "dyn_hidden", "dyn_depth", "node_steps",
                 "batch_size", "eval_interval", "patience", "log_every")
# node_lr = 0 and latent_dim = 0 select defaults; seeds must be >= 0 for numpy
_AT_LEAST_ZERO = ("num_classes", "split_seed", "latent_dim", "label_noise_std", "seed", "node_lr",
                  "iterations")
_LOW = {**dict.fromkeys(_AT_LEAST_ZERO, 0), **dict.fromkeys(_AT_LEAST_ONE, 1)}


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
            values[key] = {"int": int, "float": float}.get(kind, str)(value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: cannot parse {value!r} as {kind} for key {key!r}"
            ) from None
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
    except OSError:  # missing, a directory, or a name too long for the file system
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config_text(text, source=str(path))
