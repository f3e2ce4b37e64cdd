"""Dataset ingestion, synthesis, and preprocessing for paired (x, y) records."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

__all__ = [
    "TaskKind",
    "PairedDataset",
    "DataError",
    "toy_crossing",
    "load_csv",
    "split",
    "standardize",
    "apply_normalization",
    "denormalize_y",
    "synth_regression",
]


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


@dataclass(frozen=True)
class TaskKind:
    kind: str  # "regression" | "classification"
    num_classes: int | None = None

    def __post_init__(self):
        if self.kind not in ("regression", "classification"):
            raise DataError(f"unknown task kind {self.kind!r}")
        if self.kind == "classification" and (self.num_classes is None or self.num_classes < 1):
            raise DataError("classification needs num_classes >= 1")
        if self.kind == "regression" and self.num_classes is not None:
            raise DataError("regression does not take num_classes")

    @classmethod
    def regression(cls) -> "TaskKind":
        return cls("regression")

    @classmethod
    def classification(cls, num_classes: int) -> "TaskKind":
        return cls("classification", num_classes)

    @property
    def is_classification(self) -> bool:
        return self.kind == "classification"


@dataclass
class PairedDataset:
    """Matched (x, y) records plus the normalization stats that produced them.

    Stats default to the identity transform; ``split`` replaces them with the
    train-side statistics so predictions can be mapped back to original units.
    Duplicate x rows with differing y rows are rejected on construction: no
    deterministic map exists for such data.
    """

    x: np.ndarray
    y: np.ndarray
    task: TaskKind
    x_mean: np.ndarray = field(default=None)  # type: ignore[assignment]
    x_std: np.ndarray = field(default=None)  # type: ignore[assignment]
    y_mean: np.ndarray = field(default=None)  # type: ignore[assignment]
    y_std: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.x.ndim != 2 or self.y.ndim != 2:
            raise DataError(f"x and y must be 2-D, got {self.x.shape} and {self.y.shape}")
        if self.x.shape[0] != self.y.shape[0]:
            raise DataError(
                f"x and y row counts differ: {self.x.shape[0]} vs {self.y.shape[0]}"
            )
        if self.x.shape[0] < 1:
            raise DataError("dataset needs at least one record")
        if not np.isfinite(self.x).all() or not np.isfinite(self.y).all():
            raise DataError("dataset contains non-finite values")
        if self.task.is_classification and self.y.shape[1] != self.task.num_classes:
            raise DataError(
                f"one-hot labels of width {self.task.num_classes} expected, got {self.y.shape[1]}"
            )
        self._reject_conflicting_duplicates()
        if self.x_mean is None:
            self.x_mean = np.zeros(self.x.shape[1])
            self.x_std = np.ones(self.x.shape[1])
        if self.y_mean is None:
            self.y_mean = np.zeros(self.y.shape[1])
            self.y_std = np.ones(self.y.shape[1])

    def _reject_conflicting_duplicates(self):
        """Raise on the first row i (in row order) whose x bytes equal those of
        an earlier row j, the first with those bytes, while y differs.

        Equal rows hash equal, so distinct hashes of the rows' 64-bit words w
        end the check. Each hash is sum_j K**(j+1) (w_j ^ (w_j >> 29)) mod 2**64:
        the shift moves the exponent into the low bits (integer-valued x has
        zeros there), and the powers of the odd K are distinct odd multipliers.
        Otherwise sorting the x rows as raw bytes puts equal rows next to each
        other; the smallest row index of each run is its j.
        """
        n, d = self.x.shape
        mixed = self.x.view(np.uint64) >> np.uint64(29)
        mixed ^= self.x.view(np.uint64)
        powers = np.cumprod(np.full(d, 0x9E3779B97F4A7C15, dtype=np.uint64))  # wraps
        h = np.sort(np.einsum("ij,j->i", mixed, powers))  # wraps
        if not (h[1:] == h[:-1]).any():
            return
        if d == 0:  # no features: all x rows are equal
            rows = np.zeros(n, dtype=np.uint8)
        else:
            rows = self.x.view(np.dtype((np.void, self.x.itemsize * d))).reshape(n)
        order = np.argsort(rows)
        ranked = rows[order]
        same = ranked[1:] == ranked[:-1]
        if not same.any():
            return
        starts = np.flatnonzero(np.concatenate([[True], ~same]))
        first = np.repeat(np.minimum.reduceat(order, starts), np.diff(np.append(starts, n)))
        conflict = np.flatnonzero((self.y[order] != self.y[first]).any(axis=1))
        if conflict.size:
            at = conflict[np.argmin(order[conflict])]
            raise DataError(
                f"rows {first[at]} and {order[at]} share the same x but have different y; "
                "no deterministic map exists for such data"
            )

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d_x(self) -> int:
        return self.x.shape[1]

    @property
    def d_y(self) -> int:
        return self.y.shape[1]

    def subset(self, idx: np.ndarray) -> "PairedDataset":
        return replace(self, x=self.x[idx], y=self.y[idx])


def toy_crossing(crossing: bool = True) -> PairedDataset:
    """Four-pair 2-D regression task whose straight chords all intersect.

    Inputs sit at (-1, y) for y in {-0.75, -0.25, 0.25, 0.75}; outputs sit at
    (1, y') with the y order reversed, so every pair of input-output chords
    crosses inside x in (-1, 1) (all of them through the origin). With
    ``crossing=False`` the pairing is the identity, giving parallel
    (non-crossing) chords as a control. Coordinates are this library's
    canonical stand-in configuration.
    """
    levels = np.array([-0.75, -0.25, 0.25, 0.75])
    x = np.stack([-np.ones(4), levels], axis=1)
    out_levels = levels[::-1] if crossing else levels
    y = np.stack([np.ones(4), out_levels], axis=1)
    return PairedDataset(x, y, TaskKind.regression())


def load_csv(path, x_cols: list[str], y_cols: list[str],
             task: TaskKind | str) -> PairedDataset:
    """Parse a UTF-8, comma-separated file with a header row of column names.

    ``task`` is a TaskKind or one of the strings "regression" /
    "classification" (the latter infers the class count). For classification,
    y_cols must be a single column of integer class indices in [0, k); labels
    are one-hot encoded. Non-numeric and missing cells are reported with
    1-based data row numbers and column names; a missing, unreadable or
    non-UTF-8 file raises ``DataError`` naming the file.
    """
    if isinstance(task, str):
        want_classification = task == "classification"
        if not want_classification and task != "regression":
            raise DataError(f"unknown task kind {task!r}")
        task = TaskKind.regression()
    else:
        want_classification = task.is_classification
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not valid UTF-8") from None
    except OSError:  # missing, a directory, or a name too long for the file system
        raise DataError(f"csv dataset file not found or unreadable: {path}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    index = {name: i for i, name in enumerate(header)}
    for col in list(x_cols) + list(y_cols):
        if col not in index:
            raise DataError(f"{path}: missing column {col!r}")
    rows = []
    for row_num, row in enumerate(reader, start=1):
        if not row:
            continue
        rec = []
        for col in list(x_cols) + list(y_cols):
            if index[col] >= len(row):
                raise DataError(f"{path}: row {row_num} has no cell for column {col!r}")
            cell = row[index[col]].strip()
            try:
                rec.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell {cell!r} at row {row_num}, column {col!r}"
                ) from None
        rows.append(rec)
    if not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    x = arr[:, : len(x_cols)]
    y = arr[:, len(x_cols) :]

    if want_classification:
        if len(y_cols) != 1:
            raise DataError("classification expects a single y column of class indices")
        raw = y[:, 0]
        if not np.all(raw == np.round(raw)) or raw.min() < 0:
            raise DataError("class indices must be non-negative integers")
        idx = raw.astype(int)
        k = task.num_classes if task.is_classification else int(idx.max()) + 1
        if idx.max() >= k:
            raise DataError(f"label {idx[idx >= k][0]} outside [0, {k})")
        task = TaskKind.classification(k)
        y = np.eye(k)[idx]
    return PairedDataset(x, y, task)


def standardize(ds: PairedDataset) -> PairedDataset:
    """Standardize features (and regression targets) by the dataset's own moments."""
    return apply_normalization(ds, ds.x.mean(axis=0), ds.x.std(axis=0),
                               ds.y.mean(axis=0), ds.y.std(axis=0))


def apply_normalization(ds: PairedDataset, x_mean, x_std, y_mean, y_std) -> PairedDataset:
    """Standardize with given stats (e.g. from a training manifest).

    A std below 1e-12 counts as 1, so near-constant columns keep unit scale
    and the transform stays invertible. Classification targets stay one-hot,
    recorded with zero mean and unit std whatever stats are given.
    """
    x_mean = np.asarray(x_mean, dtype=np.float64)
    x_std = np.asarray(x_std, dtype=np.float64)
    x_std = np.where(x_std < 1e-12, 1.0, x_std)
    if ds.task.is_classification:
        y_mean = np.zeros(ds.d_y)
        y_std = np.ones(ds.d_y)
    else:
        y_mean = np.asarray(y_mean, dtype=np.float64)
        y_std = np.asarray(y_std, dtype=np.float64)
        y_std = np.where(y_std < 1e-12, 1.0, y_std)
    return PairedDataset(
        (ds.x - x_mean) / x_std,
        ds.y if ds.task.is_classification else (ds.y - y_mean) / y_std,
        ds.task,
        x_mean=x_mean,
        x_std=x_std,
        y_mean=y_mean,
        y_std=y_std,
    )


def denormalize_y(ds: PairedDataset, y: np.ndarray) -> np.ndarray:
    return np.asarray(y) * ds.y_std + ds.y_mean


def split(ds: PairedDataset, ratio: float, seed: int,
          normalize: bool = True) -> tuple[PairedDataset, PairedDataset]:
    """Seeded shuffle-and-split. With ``normalize``, the train side is
    standardized and the validation side takes the train side's stats;
    without it, both sides keep ``ds``'s values and stats."""
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    n_train = int(ds.n * ratio)
    if n_train == 0 or n_train == ds.n:
        raise DataError(f"split of {ds.n} records at ratio {ratio} leaves one side empty")
    perm = np.random.default_rng(seed).permutation(ds.n)
    train = ds.subset(perm[:n_train])
    val = ds.subset(perm[n_train:])
    if not normalize:
        return train, val
    train = standardize(train)
    val = apply_normalization(val, train.x_mean, train.x_std, train.y_mean, train.y_std)
    return train, val


def synth_regression(n: int, d_x: int, seed: int) -> PairedDataset:
    """Deterministic smooth synthetic regression task.

    x ~ uniform([-1, 1]^d_x); y is the mean of three sinusoids of random
    linear projections: y = mean_j sin(x . w_j + phase_j), with w_j standard
    normal and phases uniform on [0, 2*pi). Noise-free.
    """
    if n < 2:
        raise DataError(f"synth_regression needs n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, d_x))
    w = rng.standard_normal(size=(3, d_x))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    y = np.sin(x @ w.T + phase).mean(axis=1, keepdims=True)
    return PairedDataset(x, y, TaskKind.regression())
