"""ODE integration with exact function-evaluation accounting.

``solve`` integrates a plain-array vector field with fixed-step Euler/RK4 or
adaptive Dormand-Prince 5(4); every call to the field increments the NFE
counter. ``solve_with_grad`` unrolls a fixed-step solve on the autodiff tape
so gradients of the discretized solution are exact (discretize-then-optimize).

``solve`` runs Euler/RK4 through ``solve_with_grad``'s loop, the only one, with
RK4's increment summed as ((k1 + 2 k2) + 2 k3) + k4, and checks finiteness once
at the end: a non-finite entry stays non-finite through every z + c k update.

``solve``'s field must be row-wise: row i of f(z, t) depends only on row i of
z. A 2-D state of more than ``_BLOCK_ROWS`` (1,024) rows is split into
contiguous blocks of 512 to 1,024 rows, so each step's temporaries stay in
cache. Euler/RK4 integrate one block at a time through every step; dopri5
keeps one step control over all rows, and each step runs every block through
all six stages, keeping full-size only the arrays step control needs.
On OpenBLAS 0.3.31 a row of a product with at least three output columns has
the same bits for every row count of at least 256, so there the split leaves
the results of fields that wide unchanged; a run's manifest records its BLAS.

NFE identities (tested exactly, counted per row, not per block call): Euler
with n steps costs n evaluations, RK4 costs 4n, and dopri5 with
first-same-as-last stage reuse costs 1 + 6 * (accepted + rejected). dopri5's
first step follows Hairer's rule without its trial evaluation, so it grows
as the tolerance loosens and a straight flow takes few steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import Tensor, as_tensor, combine, no_grad

__all__ = ["SolverSpec", "SolveResult", "SolverError", "solve", "solve_with_grad"]


class SolverError(RuntimeError):
    """Integration failure: step underflow or non-finite state."""


@dataclass(frozen=True)
class SolverSpec:
    """One of Euler(n), RK4(n), Dopri5(rtol, atol)."""

    kind: str
    n_steps: int | None = None
    rtol: float | None = None
    atol: float | None = None

    def __post_init__(self):
        if self.kind in ("euler", "rk4"):
            if self.n_steps is None or self.n_steps < 1:
                raise ValueError(f"{self.kind} needs n_steps >= 1, got {self.n_steps}")
        elif self.kind == "dopri5":
            if not all(tol is not None and 0.0 < tol < math.inf for tol in (self.rtol, self.atol)):
                raise ValueError("dopri5 needs finite rtol > 0 and atol > 0")
        else:
            raise ValueError(f"unknown solver kind {self.kind!r}")

    @classmethod
    def euler(cls, n: int) -> "SolverSpec":
        return cls("euler", n_steps=n)

    @classmethod
    def rk4(cls, n: int) -> "SolverSpec":
        return cls("rk4", n_steps=n)

    @classmethod
    def dopri5(cls, rtol: float = 1e-3, atol: float = 1e-3) -> "SolverSpec":
        return cls("dopri5", rtol=rtol, atol=atol)

    @classmethod
    def parse(cls, text: str) -> "SolverSpec":
        """Parse "euler:N", "rk4:N", "dopri5:rtol,atol" (or bare "dopri5")."""
        head, _, rest = text.strip().partition(":")
        try:
            if head in ("euler", "rk4"):
                return cls(head, n_steps=int(rest))
            if head == "dopri5":
                if not rest:
                    return cls.dopri5()
                rtol_s, _, atol_s = rest.partition(",")
                atol_s = atol_s or rtol_s
                return cls.dopri5(float(rtol_s), float(atol_s))
        except ValueError as exc:
            raise ValueError(f"invalid solver spec {text!r}: {exc}") from None
        raise ValueError(f"invalid solver spec {text!r}")

    def label(self) -> str:
        if self.kind == "dopri5":
            return f"dopri5:{self.rtol:g},{self.atol:g}"
        return f"{self.kind}:{self.n_steps}"


@dataclass
class SolveResult:
    z_final: Tensor
    nfe: int
    accepted_steps: int
    rejected_steps: int


# Dormand-Prince 5(4) tableau. B5 is the propagating 5th-order weight row
# (identical to the last stage row: first-same-as-last), ERR = B5 - B4.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_MIN_STEP_FRACTION = 1e-12
_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0
_ERR_EXPONENT = -0.2  # 1/5 for a 5(4) pair


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


_NONFINITE = "NaN or infinite state encountered during integration"

# A block's working set (a few [1024, 64] float64 arrays, about 1.5 MB) fits a
# 2 MB per-core L2 cache; larger blocks stream every step's temporaries
# through memory. Measured on a 20,000-row euler:100 eval with 64 hidden
# units: 512 and 1,024 rows within 1.5%, 2,048 3% and 4,096 15% slower.
_BLOCK_ROWS = 1024


def _row_blocks(n: int) -> list[slice]:
    """Split n rows into ceil(n / _BLOCK_ROWS) contiguous, nearly equal blocks.

    Sizes differ by at most one row, larger blocks first, as ``np.array_split``
    makes them; with more than _BLOCK_ROWS rows no block has fewer than 512.
    """
    count = max(1, -(-n // _BLOCK_ROWS))
    size, extra = divmod(n, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def solve(f: Callable[[np.ndarray, float], np.ndarray], z0, t0: float, t1: float,
          spec: SolverSpec) -> SolveResult:
    """Integrate dz/dt = f(z, t) from t0 to t1.

    ``f`` maps (state array, time) to a velocity array of the same shape, must
    be pure, and must be row-wise: row i of its output depends only on row i
    of the state. A 2-D state of more than 1,024 rows is solved in blocks of
    512 to 1,024 rows, so ``f`` is called once per block per evaluation; the
    returned NFE counts evaluations per row.
    """
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got {t0} >= {t1}")
    z = np.ascontiguousarray(z0, dtype=np.float64)
    blocks = _row_blocks(len(z)) if z.ndim == 2 else [...]  # other shapes: one block
    if spec.kind == "dopri5":
        return _dopri5(f, z, blocks, t0, t1, spec.rtol, spec.atol)
    field = lambda zt, t: f(zt.data, t)
    out = np.empty_like(z)
    with no_grad():
        for rows in blocks:
            block, nfe = solve_with_grad(field, z[rows], t0, t1, spec)
            out[rows] = block.data
    if not np.isfinite(out).all():
        raise SolverError(_NONFINITE)
    return SolveResult(Tensor(out), nfe, accepted_steps=spec.n_steps, rejected_steps=0)


def _initial_step(z, k1, t0, t1, rtol, atol) -> float:
    # Hairer, Norsett and Wanner's start (Solving ODEs I, II.4), h = min(100 h0,
    # (0.01 / d1)^(1/5)) with h0 = 0.01 d0 / d1, d0 and d1 being the state's and
    # velocity's RMS in the tolerance's scale: a looser tolerance starts longer.
    # Its trial step is left out, as that evaluation would break nfe = 1 + 6 *
    # (accepted + rejected). The floor at h0 keeps a state large next to its
    # velocity from starting below h0, where the root alone would cost steps.
    span = t1 - t0
    sc = atol + rtol * np.abs(z)
    d0 = _rms(z / sc)
    d1 = _rms(k1 / sc)
    h = 1e-6 * span if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if d1 > 0.0:
        h = max(h, min(100.0 * h, (0.01 / d1) ** 0.2))
    return float(min(max(h, 1e-9 * span), span))


def _dopri5(f, z0, blocks, t0, t1, rtol, atol):
    # z0 is copied because an accepted step swaps the z and candidate buffers.
    # The candidate is stage 6's state, as _DP_A[6] is the 5th-order row. The
    # other full-size buffers are made after _initial_step's temporaries die.
    z = z0.copy()
    k_first = np.empty_like(z)
    for rows in blocks:
        k_first[rows] = f(z[rows], t0)
    nfe = 1
    h = _initial_step(z, k_first, t0, t1, rtol, atol)
    z_new, k_last, ratio = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    t = t0
    accepted = rejected = 0
    span = t1 - t0

    while t < t1:
        remaining = t1 - t
        if remaining < _MIN_STEP_FRACTION * span:
            break  # within roundoff of the endpoint
        h = min(h, remaining)
        if h < _MIN_STEP_FRACTION * span:
            raise SolverError(
                f"stiff or invalid field: step size underflow at t={t:.6g}"
            )
        for rows in blocks:
            zb, k = z[rows], [k_first[rows]]
            for s in range(1, 7):
                zs = zb + h * sum(a * k[j] for j, a in enumerate(_DP_A[s]) if a != 0.0)
                k.append(np.asarray(f(zs, t + _DP_C[s] * h), dtype=np.float64))
            z_new[rows], k_last[rows] = zs, k[6]
            err_vec = h * sum(e * k[j] for j, e in enumerate(_DP_ERR) if e != 0.0)
            ratio[rows] = err_vec / (atol + rtol * np.maximum(np.abs(zb), np.abs(zs)))
        nfe += 6
        err = _rms(ratio)
        if not (np.isfinite(err) and np.isfinite(z_new).all()):
            raise SolverError(_NONFINITE)

        if err <= 1.0:
            t = t1 if h >= (t1 - t) else t + h
            z, z_new = z_new, z
            k_first, k_last = k_last, k_first  # first-same-as-last reuse
            accepted += 1
        else:
            rejected += 1
        factor = _FACTOR_MAX if err == 0.0 else _SAFETY * err ** _ERR_EXPONENT
        h = h * min(max(factor, _FACTOR_MIN), _FACTOR_MAX)

    return SolveResult(Tensor(z), nfe, accepted, rejected)


def solve_with_grad(f: Callable[[Tensor, float], Tensor], z0, t0: float, t1: float,
                    spec: SolverSpec) -> tuple[Tensor, int]:
    """Fixed-step solve unrolled on the autodiff tape: the one Euler/RK4 loop.

    Gradients w.r.t. the field's parameters and z0 are the exact gradients of
    the discretized solution. RK4 sums ((k1 + 2 k2) + 2 k3) + k4; ``solve``
    checks the final state's finiteness. Adaptive stepping is rejected:
    backpropagation through step-size control is not supported.
    """
    if spec.kind == "dopri5":
        raise ValueError(f"solve_with_grad supports fixed-step euler/rk4 only, got {spec.label()}")
    if not t0 < t1:
        raise ValueError(f"need t0 < t1, got {t0} >= {t1}")
    z = as_tensor(z0)
    h = (t1 - t0) / spec.n_steps
    nfe = 0
    for i in range(spec.n_steps):
        t = t0 + i * h
        if spec.kind == "euler":
            z = combine(z, f(z, t), 1.0, h)
            nfe += 1
        else:
            k1 = f(z, t)
            k2 = f(combine(z, k1, 1.0, 0.5 * h), t + 0.5 * h)
            k3 = f(combine(z, k2, 1.0, 0.5 * h), t + 0.5 * h)
            k4 = f(combine(z, k3, 1.0, h), t + h)
            incr = combine(combine(combine(k1, k2, 1.0, 2.0), k3, 1.0, 2.0), k4, 1.0, 1.0)
            z = combine(z, incr, 1.0, h / 6.0)
            nfe += 4
    return z, nfe
