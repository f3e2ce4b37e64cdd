"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The tape has six primitives, exactly those the training losses record: the
fused affine layer ``linear`` (whose weight's last column is the time weight
of time-conditioned layers), the constant-coefficient combination ``combine``
(interpolants, solver updates, sums of losses), ``tanh``/``relu``, and the
reductions ``sq_diff_rowsum`` and ``mean_all`` of squared-error objectives.
Each primitive returns a fresh Tensor; when tracking is enabled and an
operand requires gradients, the output records its parents and a backward
closure. Node ids grow monotonically, so iterating reachable nodes in
decreasing id order is a valid reverse topological order for
backpropagation. ``backward`` returns the gradients as plain arrays.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "GradientMap",
    "ShapeMismatch",
    "AutodiffError",
    "no_grad",
    "as_tensor",
    "linear",
    "combine",
    "tanh",
    "relu",
    "mean_all",
    "sq_diff_rowsum",
    "backward",
    "grad_check",
]

_NODE_IDS = itertools.count()
# single-element list so closures observe toggling by no_grad
_TRACKING = [True]


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for a primitive."""

    def __init__(self, primitive: str, *shapes: tuple[int, ...]):
        self.primitive = primitive
        self.shapes = tuple(tuple(s) for s in shapes)
        shown = " and ".join(str(s) for s in self.shapes)
        super().__init__(f"{primitive}: shapes {shown} do not conform")


class AutodiffError(RuntimeError):
    """Invalid tape use: non-scalar loss, or NaN met during backward."""


class no_grad:
    """Disable tape recording inside a ``with`` block."""

    def __enter__(self) -> "no_grad":
        self._saved = _TRACKING[0]
        _TRACKING[0] = False
        return self

    def __exit__(self, *_exc) -> bool:
        _TRACKING[0] = self._saved
        return False


class Tensor:
    """Contiguous row-major float64 array, optionally recorded on the tape.

    Tensors are values: no primitive mutates its inputs. The only sanctioned
    mutations are optimizer updates of parameter leaves (rebinding ``data``,
    or updating in place the flat buffer that `adam_step` makes their
    ``data`` view into) and the temporary in-place perturbation done by
    `grad_check`.
    """

    # tape nodes are allocated per-op in hot training loops
    __slots__ = ("data", "requires_grad", "name", "id", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.id = next(_NODE_IDS)
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], list[tuple["Tensor", np.ndarray]]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise AutodiffError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self.op!r})"


GradientMap = dict[int, np.ndarray]


def as_tensor(value) -> Tensor:
    """Coerce arrays/scalars to a constant Tensor; pass Tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    out.op = op
    if _TRACKING[0]:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward_fn
                break
    return out


def linear(x, W, b, t=None) -> Tensor:
    """Affine layer x @ W.T + b with W of shape [out, in] and b of shape [out].

    With a time input ``t`` the layer is time-conditioned: W has shape
    [out, in + 1] and its last column is the time weight, so the output is
    that of the layer applied to [x, t]. A scalar ``t`` folds into the bias as
    b + t * W[:, -1]; a per-row vector of shape [n] adds the rank-1 term
    t ⊗ W[:, -1]. ``t`` is a constant: no gradient flows into it.
    """
    x, W, b = as_tensor(x), as_tensor(W), as_tensor(b)
    xd, Wd, bd = x.data, W.data, b.data
    timed = t is not None
    if (xd.ndim != 2 or Wd.ndim != 2 or bd.shape != (Wd.shape[0],)
            or xd.shape[1] + timed != Wd.shape[1]):
        raise ShapeMismatch("linear", xd.shape, Wd.shape, bd.shape)
    w_x = Wd[:, :-1] if timed else Wd
    out = xd @ w_x.T
    if not timed:
        out += bd
    elif np.ndim(t) == 0:
        t = float(t)
        out += bd + t * Wd[:, -1]
    else:
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (xd.shape[0],):
            raise ShapeMismatch("linear time", t.shape, (xd.shape[0],))
        out += bd
        out += t[:, None] * Wd[:, -1]

    def backward_fn(g: np.ndarray):
        grads = []
        if x.requires_grad:
            grads.append((x, g @ w_x))
        gb = g.sum(axis=0) if (b.requires_grad or timed) else None
        if W.requires_grad:
            if timed:
                gW = np.empty(Wd.shape)
                np.matmul(g.T, xd, out=gW[:, :-1])
                gW[:, -1] = t * gb if isinstance(t, float) else g.T @ t
            else:
                gW = g.T @ xd
            grads.append((W, gW))
        if b.requires_grad:
            grads.append((b, gb))
        return grads

    return _result(out, "linear", (x, W, b), backward_fn)


def combine(a, b, ca, cb) -> Tensor:
    """ca * a + cb * b with constant coefficients.

    ``ca``/``cb`` are scalars, or per-row vectors of shape [n] that scale
    each row of the [n, d] operands. Gradients flow into a and b only.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatch("combine", a.shape, b.shape)
    # Floats are checked first: on small arrays two np.ndim calls cost more
    # than the arithmetic, and the solver updates pass floats.
    scalars = isinstance(ca, float) and isinstance(cb, float)
    if scalars or (np.ndim(ca) == 0 and np.ndim(cb) == 0):
        ca, cb = float(ca), float(cb)
    else:
        ca = np.asarray(ca, dtype=np.float64)
        cb = np.asarray(cb, dtype=np.float64)
        if a.ndim != 2 or ca.shape != (a.shape[0],) or cb.shape != ca.shape:
            raise ShapeMismatch("combine per-row coefficients", a.shape, ca.shape, cb.shape)
        ca, cb = ca[:, None], cb[:, None]

    def backward_fn(g: np.ndarray):
        grads = []
        if a.requires_grad:
            grads.append((a, _times(ca, g)))
        if b.requires_grad:
            grads.append((b, _times(cb, g)))
        return grads

    return _result(_times(ca, a.data) + _times(cb, b.data), "combine", (a, b), backward_fn)


def _times(c, x: np.ndarray) -> np.ndarray:
    """c * x, or x itself for the unit scalar: the same bits without a copy,
    which at batch 1024 costs about 2.5% of a training step."""
    return x if type(c) is float and c == 1.0 else c * x


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)

    def backward_fn(g: np.ndarray):
        return [(a, (1.0 - y * y) * g)] if a.requires_grad else []

    return _result(y, "tanh", (a,), backward_fn)


def relu(a) -> Tensor:
    """max(a, 0), branch-free: +0.0 for -0.0, and NaN stays NaN, so a NaN
    input surfaces in the caller's finiteness checks instead of becoming 0."""
    a = as_tensor(a)
    y = np.maximum(a.data, 0.0)  # not maximum(0.0, a), which keeps -0.0

    def backward_fn(g: np.ndarray):
        return [(a, (y > 0) * g)] if a.requires_grad else []  # y > 0 iff a > 0

    return _result(y, "relu", (a,), backward_fn)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size

    def backward_fn(g: np.ndarray):
        return [(a, np.full(a.shape, g.item() / n))] if a.requires_grad else []

    return _result(np.asarray(a.data.mean()), "mean_all", (a,), backward_fn)


def sq_diff_rowsum(a, b) -> Tensor:
    """Per-row squared L2 distance: out[i] = sum_j (a[i,j] - b[i,j])^2."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeMismatch("sq_diff_rowsum", a.shape, b.shape)
    diff = a.data - b.data

    def backward_fn(g: np.ndarray):
        d = 2.0 * diff * g[:, None]
        out = []
        if a.requires_grad:
            out.append((a, d))
        if b.requires_grad:
            out.append((b, -d))
        return out

    return _result((diff * diff).sum(axis=1), "sq_diff_rowsum", (a, b), backward_fn)


def backward(loss: Tensor, params: Sequence[Tensor]) -> GradientMap:
    """Reverse-mode gradients of a scalar loss w.r.t. the given parameters.

    Parameters not reachable from the loss get zero gradients. The returned
    map is keyed by tensor id; every requested parameter appears exactly once
    with a gradient array of identical shape.

    NaN is looked for once per leaf gradient, after the sweep. Only when one
    is found is the sweep replayed with a check after every primitive's
    backward, so that the error names the primitive that produced the NaN.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward needs a scalar loss, got shape {loss.shape}")

    nodes: dict[int, Tensor] = {}
    stack = [loss]
    while stack:
        t = stack.pop()
        if t.id not in nodes:
            nodes[t.id] = t
            stack.extend(t._parents)
    order = sorted(nodes.values(), key=lambda n: n.id, reverse=True)

    grads = _sweep(loss, order, checked=False)
    for t in order:
        if t._backward is None:
            g = grads.get(t.id)
            if g is not None and np.isnan(g).any():
                _sweep(loss, order, checked=True)
                raise AutodiffError(f"NaN gradient for leaf {t.name or t.id}")

    return {p.id: grads[p.id] if p.id in grads else np.zeros_like(p.data) for p in params}


def _sweep(loss: Tensor, order: list[Tensor], checked: bool) -> dict[int, np.ndarray]:
    """Accumulate gradients over nodes in reverse topological order.

    With ``checked`` set, raise on the first NaN that a primitive's backward
    produces, naming that primitive.
    """
    grads: dict[int, np.ndarray] = {loss.id: np.ones_like(loss.data)}
    for t in order:
        if t._backward is None:
            continue
        g = grads.get(t.id)
        if g is None:
            continue
        for parent, contrib in t._backward(g):
            if checked and np.isnan(contrib).any():
                raise AutodiffError(f"NaN produced in backward of {t.op!r}")
            acc = grads.get(parent.id)
            grads[parent.id] = contrib if acc is None else acc + contrib
    return grads


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Perturbs ``x.data`` in place coordinate by coordinate (restored before
    returning). ``f`` must be scalar-valued and deterministic across calls.
    The error is max_i |analytic_i - numeric_i| / max(1, |analytic_i|).
    """
    analytic = backward(f(x), [x])[x.id]
    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).item()
        flat[i] = orig - eps
        fm = f(x).item()
        flat[i] = orig
        num_flat[i] = (fp - fm) / (2.0 * eps)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max()) if rel.size else 0.0
