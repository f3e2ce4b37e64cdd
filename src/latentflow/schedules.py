"""Closed-form dynamics schedules: interpolants and their target velocities.

A schedule fixes coefficient functions (alpha, beta) on [0, 1] with
alpha(0) = 1, beta(0) = 0, alpha(1) = 0, beta(1) = 1, so the interpolated
state alpha_t * z0 + beta_t * z1 starts at z0 and ends at z1. Its time
derivative dalpha_t * z0 + dbeta_t * z1 is the regression target for the
dynamics function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import Tensor, combine

__all__ = ["Schedule", "SCHEDULES", "get_schedule", "interpolate", "target_velocity"]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class Schedule:
    """Coefficient functions accept scalars or numpy arrays elementwise."""

    kind: str
    alpha: Callable
    beta: Callable
    dalpha: Callable
    dbeta: Callable


def _pin_endpoints(fn, at0: float, at1: float):
    """Force exact boundary values: cos(pi/2) is ~6e-17 in floats, not 0."""

    def pinned(t):
        arr = np.asarray(t, dtype=np.float64)
        out = np.asarray(fn(arr), dtype=np.float64)
        return np.where(arr == 0.0, at0, np.where(arr == 1.0, at1, out))

    return pinned


SCHEDULES = {
    "linear": Schedule(
        "linear",
        alpha=lambda t: 1.0 - np.asarray(t, dtype=np.float64),
        beta=lambda t: np.asarray(t, dtype=np.float64) + 0.0,
        dalpha=lambda t: np.full_like(np.asarray(t, dtype=np.float64), -1.0),
        dbeta=lambda t: np.ones_like(np.asarray(t, dtype=np.float64)),
    ),
    "concave": Schedule(
        "concave",
        alpha=_pin_endpoints(lambda t: np.cos(_HALF_PI * t), 1.0, 0.0),
        beta=_pin_endpoints(lambda t: np.sin(_HALF_PI * t), 0.0, 1.0),
        dalpha=lambda t: -_HALF_PI * np.sin(_HALF_PI * np.asarray(t, dtype=np.float64)),
        dbeta=lambda t: _HALF_PI * np.cos(_HALF_PI * np.asarray(t, dtype=np.float64)),
    ),
    "convex": Schedule(
        "convex",
        alpha=_pin_endpoints(lambda t: 1.0 - np.sin(_HALF_PI * t), 1.0, 0.0),
        beta=_pin_endpoints(lambda t: 1.0 - np.cos(_HALF_PI * t), 0.0, 1.0),
        dalpha=lambda t: -_HALF_PI * np.cos(_HALF_PI * np.asarray(t, dtype=np.float64)),
        dbeta=lambda t: _HALF_PI * np.sin(_HALF_PI * np.asarray(t, dtype=np.float64)),
    ),
}


def get_schedule(kind: str) -> Schedule:
    try:
        return SCHEDULES[kind]
    except KeyError:
        raise ValueError(
            f"unknown schedule {kind!r}; expected one of {sorted(SCHEDULES)}"
        ) from None


def _check_t(t) -> np.ndarray:
    arr = np.asarray(t, dtype=np.float64)
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return arr


def _combine(z0, z1, c0, c1):
    """c0*z0 + c1*z1 for Tensor or ndarray endpoints.

    c0/c1 are scalars or per-sample vectors matching the batch axis; they are
    constants (no gradient flows into the coefficients, only into z0/z1).
    Tensor endpoints give a Tensor on the tape, array endpoints an array.
    """
    out = combine(z0, z1, c0, c1)
    return out if isinstance(z0, Tensor) or isinstance(z1, Tensor) else out.data


def interpolate(schedule: Schedule, z0, z1, t):
    """State on the schedule's path: alpha_t * z0 + beta_t * z1.

    ``t`` is a scalar in [0, 1] shared by all samples, or a per-sample vector
    broadcast over feature dimensions.
    """
    arr = _check_t(t)
    return _combine(z0, z1, schedule.alpha(arr), schedule.beta(arr))


def target_velocity(schedule: Schedule, z0, z1, t):
    """Time derivative of the interpolant: dalpha_t * z0 + dbeta_t * z1."""
    arr = _check_t(t)
    return _combine(z0, z1, schedule.dalpha(arr), schedule.dbeta(arr))
