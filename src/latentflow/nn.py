"""MLP building blocks, fixed column maps, Adam optimizer, cosine learning-rate
schedule, checkpoints."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .tensor import GradientMap, ShapeMismatch, Tensor, as_tensor, linear, tanh

__all__ = [
    "Mlp",
    "ColumnMap",
    "AdamState",
    "OptimizerError",
    "CheckpointError",
    "adam_step",
    "cosine_lr",
    "save_checkpoint",
    "load_checkpoint",
]

class OptimizerError(RuntimeError):
    """Raised on invalid optimizer input (e.g. NaN gradients)."""


class CheckpointError(ValueError):
    """A checkpoint or run-manifest file that cannot be read; names the file."""


class _Layer(NamedTuple):
    """x -> x @ weight.T + bias; in a time-conditioned MLP the last column of
    the [out, in] weight is the time weight (see `latentflow.tensor.linear`)."""

    weight: Tensor
    bias: Tensor


class Mlp:
    """Affine-activation chain over a [d_in, hidden..., d_out] dimension chain;
    no activation after the final layer.

    When ``time_conditioned`` is set, the time variable is an extra input of
    every layer, held in the last column of its weight, so each layer's input
    width includes one extra slot.
    Layer i's tensors are named ``{name}.{i}.weight`` and ``.bias``, and
    ``named_parameters`` puts ``prefix`` before them. Parameters are drawn from
    ``rng``, or taken out of ``params``, a checkpoint's arrays by prefixed
    name, each checked before the next width of ``dims`` (any iterable) is read.
    ``calls`` counts forward invocations (one per batched evaluation), which
    is how dynamics-function evaluations are accounted. A ``solve`` that
    splits its rows into blocks calls the field once per block, so ``calls``
    then goes up once per block for each evaluation its NFE counts.
    """

    def __init__(self, dims: Iterable[int], activation: Callable[[Tensor], Tensor] = tanh,
                 time_conditioned: bool = False, rng: np.random.Generator | None = None,
                 name: str = "mlp", prefix: str = "", params: dict[str, np.ndarray] | None = None):
        if rng is None and params is None:
            rng = np.random.default_rng(0)
        extra = 1 if time_conditioned else 0
        self.layers = []
        for i, (n_in, n_out) in enumerate(itertools.pairwise(dims)):
            bound = 1.0 / math.sqrt(n_in + extra)  # uniform init scaled by 1/sqrt(fan_in)
            tensors = []
            for kind, shape in (("weight", (n_out, n_in + extra)), ("bias", (n_out,))):
                key = f"{prefix}{name}.{i}.{kind}"
                if params is None:
                    arr = rng.uniform(-bound, bound, size=shape)
                elif key not in params:
                    raise CheckpointError(f"missing parameter {key!r}")
                elif params[key].shape != shape:
                    raise CheckpointError(
                        f"parameter {key!r} has shape {params[key].shape}, expected {shape}")
                else:
                    arr = params.pop(key)
                tensors.append(Tensor(arr, requires_grad=True, name=f"{name}.{i}.{kind}"))
            self.layers.append(_Layer(*tensors))
        if not self.layers:
            raise ValueError("dims must contain at least input and output sizes")
        self.d_in = self.layers[0].weight.shape[1] - extra
        self.d_out = self.layers[-1].weight.shape[0]
        self.activation = activation
        self.time_conditioned = time_conditioned
        self.prefix = prefix
        self.calls = 0

    def forward(self, x, t=None) -> Tensor:
        if self.time_conditioned and t is None:
            raise ValueError("time-conditioned MLP called without t")
        if not self.time_conditioned and t is not None:
            raise ValueError("t passed to an MLP that is not time-conditioned")
        h = x if isinstance(x, Tensor) else Tensor(x)
        if h.ndim != 2:
            raise ShapeMismatch("mlp input", h.shape)
        if h.shape[1] != self.d_in:
            raise ShapeMismatch("mlp layer 0", h.shape, self.layers[0].weight.shape)
        self.calls += 1
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            h = linear(h, layer.weight, layer.bias, t)
            if i < last:
                h = self.activation(h)
        return h

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(self.prefix + p.name, p) for p in self.parameters()]


class ColumnMap:
    """Parameter-free map from d_in to d_out columns, a stand-in for a network.

    Zero-pads (d_out > d_in), keeps the first d_out columns (d_out < d_in), or
    passes its input through unchanged (d_out == d_in). Only the pass-through
    carries gradients; padded and truncated outputs are constants.
    """

    def __init__(self, d_in: int, d_out: int):
        self.d_in = d_in
        self.d_out = d_out

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ShapeMismatch("column map input", x.shape, (self.d_in,))
        if self.d_out == self.d_in:
            return x
        out = np.zeros((x.shape[0], self.d_out))
        keep = min(self.d_in, self.d_out)
        out[:, :keep] = x.data[:, :keep]
        return Tensor(out)

    def parameters(self) -> list[Tensor]:
        return []

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return []


# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moments of all parameters in two flat buffers, plus the step counter.

    ``ids`` gives the parameter order in the flat buffers. After the first
    step the parameters' ``data`` are views into one flat value buffer,
    ``values``, which each step updates in place; a parameter whose ``data``
    was rebound since (checkpoint load, snapshot restore) makes the next step
    gather the values again.
    """

    m: np.ndarray
    v: np.ndarray
    ids: tuple[int, ...]
    step: int = 0
    values: np.ndarray | None = None

    @classmethod
    def for_params(cls, params: Sequence[Tensor]) -> "AdamState":
        size = sum(p.data.size for p in params)
        return cls(m=np.zeros(size), v=np.zeros(size), ids=tuple(p.id for p in params))


def _flat_values(params: Sequence[Tensor], state: AdamState) -> np.ndarray:
    """The flat parameter buffer, re-gathered if any ``data`` no longer views it."""
    values = state.values
    if values is None or any(p.data.base is not values for p in params):
        values = np.concatenate([p.data.reshape(-1) for p in params])
        offset = 0
        for p in params:
            p.data = values[offset: offset + p.data.size].reshape(p.shape)
            offset += p.data.size
        state.values = values
    return values


def adam_step(params: Sequence[Tensor], grads: GradientMap, state: AdamState,
              lr: float) -> None:
    """One bias-corrected Adam update of all parameters as one flat vector.

    The update is elementwise, so it is the per-parameter update applied to
    the concatenated parameters. Nothing is changed when a gradient is NaN.
    """
    missing = [p for p in params if p.id not in grads]
    if missing:
        names = ", ".join(str(p.name or p.id) for p in missing)
        raise OptimizerError(f"gradients missing for parameters: {names}")
    if tuple(p.id for p in params) != state.ids:
        raise OptimizerError("parameters differ from those the optimizer state was made for")
    g = np.concatenate([grads[p.id].reshape(-1) for p in params])
    if np.isnan(g).any():
        bad = next(p for p in params if np.isnan(grads[p.id]).any())
        raise OptimizerError(f"NaN gradient for parameter {bad.name or bad.id}")
    state.step += 1
    bc1 = 1.0 - _ADAM_BETA1 ** state.step
    bc2 = 1.0 - _ADAM_BETA2 ** state.step
    m, v = state.m, state.v
    m *= _ADAM_BETA1
    m += (1.0 - _ADAM_BETA1) * g
    v *= _ADAM_BETA2
    v += (1.0 - _ADAM_BETA2) * (g * g)
    values = _flat_values(params, state)
    values -= lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


def cosine_lr(step: int, total: int, base: float) -> float:
    """Half-cosine decay from ``base`` at step 0 to 0 at ``total``."""
    if total <= 0:
        raise ValueError("total iterations must be positive")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return base * 0.5 * (1.0 + math.cos(math.pi * step / total))


# Checkpoints are flat (name, shape, values) records. A parameter's values are
# one hex string of its float64 bytes in big-endian order (format
# f64be-hex-v1), so the 64-bit round trip is bit-exact and each parameter
# decodes with one bytes.fromhex.

_FORMAT = "f64be-hex-v1"


def save_checkpoint(path, named_params: Sequence[tuple[str, Tensor]]) -> None:
    payload = {
        "format": _FORMAT,
        "params": [
            {
                "name": name,
                "shape": list(p.shape),
                "values": p.data.astype(">f8").tobytes().hex(),
            }
            for name, p in named_params
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Parameter arrays by name, as writable native-order float64 copies; a
    non-finite value is a CheckpointError naming its parameter."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CheckpointError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise CheckpointError(f"unsupported checkpoint format in {path}")
    params = payload.get("params")
    if not isinstance(params, list):
        raise CheckpointError(f"{path}: no 'params' list")
    out = {}
    for i, rec in enumerate(params):
        name = rec.get("name") if isinstance(rec, dict) else None
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: parameter record {i} has no name")
        try:
            values, shape = rec["values"], rec["shape"]
            n = math.prod(shape)
            if not isinstance(values, str) or len(values) != 16 * n:
                raise ValueError(f"values are not {16 * n} hex digits for shape {shape}")
            # whitespace that fromhex skips leaves too few bytes for the reshape
            out[name] = np.frombuffer(bytes.fromhex(values), ">f8").astype(np.float64).reshape(shape)
            if not np.isfinite(out[name]).all():
                raise ValueError("holds a non-finite value")
        except KeyError as exc:
            raise CheckpointError(f"{path}: parameter {name!r}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: parameter {name!r}: {exc}") from None
    return out
