"""Training losses and the time-sampling rule.

Losses operate on any model exposing ``encode_data``, ``encode_label``,
``decode_label``, ``velocity`` and ``schedule``. Both losses reduce as the
mean over the batch of the per-sample squared L2 norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import interpolate, target_velocity
from .tensor import ShapeMismatch, Tensor, combine, mean_all, sq_diff_rowsum

__all__ = [
    "TimeSampler",
    "LossBreakdown",
    "flow_loss",
    "label_ae_loss",
    "total_loss",
]


@dataclass
class TimeSampler:
    """Per-sample times: exactly 0 with probability ``p_zero``, else uniform(0, 1).

    Placing explicit mass at t = 0 blocks the degenerate fit where a
    time-scaling dynamics function (h(z, t) = z / t) matches the target
    velocity everywhere on (0, 1] without learning the data at all.
    """

    p_zero: float = 0.1
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if not 0.0 <= self.p_zero <= 1.0:
            raise ValueError(f"p_zero must be in [0, 1], got {self.p_zero}")
        self._rng = np.random.default_rng(self.seed)

    def sample(self, n: int) -> np.ndarray:
        """Draw n times; consumes the zero-mask draws before the uniforms."""
        if n < 1:
            raise ValueError("batch size must be >= 1")
        mask = self._rng.random(n) < self.p_zero
        t = self._rng.random(n)
        t[mask] = 0.0
        return t


@dataclass(frozen=True)
class LossBreakdown:
    flow_loss: float
    label_ae_loss: float
    total: float


def flow_loss(model, x, y, times) -> Tensor:
    """Mean squared error between predicted and target velocity.

    Endpoints are the encoder outputs, so gradients flow into the dynamics
    function and both encoders (through the interpolated state and through
    the target itself).
    """
    x, y, times = _flow_batch(x, y, times)
    z0 = model.encode_data(x)
    z1 = model.encode_label(y)
    return _flow_from_embeddings(model, z0, z1, times)


def _flow_batch(x, y, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("flow_loss needs a nonempty batch")
    if times.shape != (x.shape[0],):
        raise ValueError(f"times must have shape ({x.shape[0]},), got {times.shape}")
    return x, y, times


def _flow_from_embeddings(model, z0: Tensor, z1: Tensor, times: np.ndarray) -> Tensor:
    if z0.shape != z1.shape:
        raise ShapeMismatch("encoder outputs", z0.shape, z1.shape)
    z_t = interpolate(model.schedule, z0, z1, times)
    v_t = target_velocity(model.schedule, z0, z1, times)
    pred = model.velocity(z_t, times)
    return mean_all(sq_diff_rowsum(pred, v_t))


def label_ae_loss(model, y, sigma: float, rng: np.random.Generator,
                  noise: np.ndarray | None = None) -> Tensor:
    """Reconstruction error of the label through encoder and decoder.

    Isotropic Gaussian noise of standard deviation ``sigma`` is added to the
    label embedding before decoding; the noise lives only inside this loss.
    Pass ``noise`` explicitly to pin the draw (gradient checks).
    """
    _check_sigma(sigma)
    y = np.asarray(y, dtype=np.float64)
    return _label_ae_from_embedding(model, y, model.encode_label(y), sigma, rng, noise)


def _check_sigma(sigma: float) -> None:
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")


def _label_ae_from_embedding(model, y: np.ndarray, z1: Tensor, sigma: float,
                             rng: np.random.Generator, noise: np.ndarray | None) -> Tensor:
    h = z1
    if noise is None and sigma > 0:
        noise = sigma * rng.standard_normal(z1.shape)
    if noise is not None:
        h = combine(z1, noise, 1.0, 1.0)
    rec = model.decode_label(h)
    return mean_all(sq_diff_rowsum(rec, Tensor(y)))


def total_loss(model, x, y, sampler: TimeSampler, sigma: float,
               rng: np.random.Generator) -> tuple[Tensor, LossBreakdown]:
    """Flow loss plus label autoencoding loss on the same batch (unit weights).

    The label embedding g(y) is computed once and shared by both terms: the
    loss values equal those of `flow_loss` and `label_ae_loss`, and the
    gradients equal theirs up to the order of floating-point sums.
    RNG stream order: per-sample times are drawn from ``sampler`` first, then
    the embedding noise from ``rng``.
    """
    times = sampler.sample(np.asarray(x).shape[0])
    x, y, times = _flow_batch(x, y, times)
    _check_sigma(sigma)
    z0 = model.encode_data(x)
    z1 = model.encode_label(y)
    lf = _flow_from_embeddings(model, z0, z1, times)
    lae = _label_ae_from_embedding(model, y, z1, sigma, rng, None)
    lt = combine(lf, lae, 1.0, 1.0)
    return lt, LossBreakdown(lf.item(), lae.item(), lt.item())
