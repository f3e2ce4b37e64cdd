"""MLP building blocks, fixed column maps, Adam optimizer, cosine learning-rate
schedule, checkpoints."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tensor import GradientMap, ShapeMismatch, Tensor, as_tensor, linear, relu, tanh

__all__ = [
    "LinearLayer",
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

_ACTIVATIONS = {"tanh": tanh, "relu": relu}


class OptimizerError(RuntimeError):
    """Raised on invalid optimizer input (e.g. NaN gradients)."""


class LinearLayer:
    """Affine map x -> x @ W.T + b with W of shape [out, in] and b of shape [out].

    In a time-conditioned MLP the last column of W is the time weight (see
    `latentflow.tensor.linear`); ``n_in`` counts that column.
    """

    def __init__(self, weight: Tensor, bias: Tensor):
        if weight.ndim != 2 or bias.ndim != 1 or bias.shape[0] != weight.shape[0]:
            raise ShapeMismatch("linear", weight.shape, bias.shape)
        self.weight = weight
        self.bias = bias

    @classmethod
    def init(cls, n_in: int, n_out: int, rng: np.random.Generator, name: str = "linear"):
        # uniform Kaiming-style init scaled by 1/sqrt(fan_in)
        bound = 1.0 / math.sqrt(n_in)
        w = rng.uniform(-bound, bound, size=(n_out, n_in))
        b = rng.uniform(-bound, bound, size=n_out)
        return cls(
            Tensor(w, requires_grad=True, name=f"{name}.weight"),
            Tensor(b, requires_grad=True, name=f"{name}.bias"),
        )

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]


class Mlp:
    """Affine-activation chain; no activation after the final layer.

    When ``time_conditioned`` is set, the time variable is an extra input of
    every layer, held in the last column of its weight, so each layer's input
    width includes one extra slot.
    ``calls`` counts forward invocations (one per batched evaluation), which
    is how dynamics-function evaluations are accounted. A ``solve`` that
    splits its rows into blocks calls the field once per block, so ``calls``
    then goes up once per block for each evaluation its NFE counts.
    """

    def __init__(self, layers: Sequence[LinearLayer], activation: str = "tanh",
                 time_conditioned: bool = False):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        extra = 1 if time_conditioned else 0
        for i in range(len(layers) - 1):
            if layers[i + 1].n_in != layers[i].n_out + extra:
                raise ShapeMismatch(
                    f"mlp layer {i + 1}",
                    layers[i + 1].weight.shape,
                    layers[i].weight.shape,
                )
        self.layers = list(layers)
        self.activation = activation
        self.time_conditioned = time_conditioned
        self.calls = 0

    @classmethod
    def build(cls, dims: Sequence[int], activation: str = "tanh",
              time_conditioned: bool = False, rng: np.random.Generator | None = None,
              name: str = "mlp") -> "Mlp":
        """Build from a [d_in, hidden..., d_out] dimension chain."""
        if len(dims) < 2:
            raise ValueError("dims must contain at least input and output sizes")
        if rng is None:
            rng = np.random.default_rng(0)
        extra = 1 if time_conditioned else 0
        layers = [
            LinearLayer.init(dims[i] + extra, dims[i + 1], rng, name=f"{name}.{i}")
            for i in range(len(dims) - 1)
        ]
        return cls(layers, activation=activation, time_conditioned=time_conditioned)

    @property
    def d_in(self) -> int:
        return self.layers[0].n_in - (1 if self.time_conditioned else 0)

    @property
    def d_out(self) -> int:
        return self.layers[-1].n_out

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
        act = _ACTIVATIONS[self.activation]
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            h = linear(h, layer.weight, layer.bias, t)
            if i < last:
                h = act(h)
        return h

    def parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [(p.name or str(p.id), p) for p in self.parameters()]


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


class CheckpointError(ValueError):
    """A checkpoint or run-manifest file that cannot be read; names the file."""


# Checkpoints are flat (name, shape, values) records. A parameter's values are
# one hex string of its float64 bytes in big-endian order (format
# f64be-hex-v1), so the 64-bit round trip is bit-exact and each parameter
# decodes with one bytes.fromhex. Files of the earlier format hexfloat-v1,
# one C99 hex float per value, still load.

_FORMAT = "f64be-hex-v1"


def _decode_f64be_hex(values, shape) -> np.ndarray:
    n = math.prod(shape)
    if not isinstance(values, str) or len(values) != 16 * n:
        raise ValueError(f"values are not {16 * n} hex digits for shape {shape}")
    # whitespace that fromhex skips leaves too few bytes for the reshape
    return np.frombuffer(bytes.fromhex(values), ">f8").astype(np.float64).reshape(shape)


def _decode_hexfloat(values, shape) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values], dtype=np.float64).reshape(shape)


_DECODERS = {_FORMAT: _decode_f64be_hex, "hexfloat-v1": _decode_hexfloat}


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
    """Parameter arrays by name, as writable native-order float64 copies."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not valid JSON ({exc})") from None
    decode = _DECODERS.get(payload.get("format")) if isinstance(payload, dict) else None
    if decode is None:
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
            out[name] = decode(rec["values"], rec["shape"])
        except KeyError as exc:
            raise CheckpointError(f"{path}: parameter {name!r}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: parameter {name!r}: {exc}") from None
    return out
