import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentflow as lf
import latentflow.model
import latentflow.tensor
from latentflow.nn import Mlp
from latentflow.tensor import (
    AutodiffError,
    ShapeMismatch,
    Tensor,
    backward,
    combine,
    grad_check,
    linear,
    mean_all,
    no_grad,
    relu,
    sq_diff_rowsum,
    tanh,
)

PRIMITIVES = {"linear", "combine", "tanh", "relu", "mean_all", "sq_diff_rowsum"}


def _sum_of_squares(t) -> Tensor:
    """sum(t**2) / rows of a 2-D tensor, built from the tape's primitives."""
    return mean_all(sq_diff_rowsum(t, np.zeros(t.shape)))


def test_activation_values():
    assert tanh(Tensor([0.0])).data[0] == 0.0
    assert relu(Tensor([-2.5])).data[0] == 0.0
    assert relu(Tensor([2.5])).data[0] == 2.5


def test_relu_forward_bits_match_the_masked_select_and_keep_nan():
    # relu(x) keeps the bits of np.where(x > 0, x, 0.0): -0.0 becomes +0.0,
    # which np.maximum(0.0, x) would not do; a NaN stays NaN
    special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf]
    x = np.concatenate([special, np.random.default_rng(0).standard_normal(200)])
    got = relu(Tensor(x)).data
    assert np.array_equal(got.view(np.uint64), np.where(x > 0, x, 0.0).view(np.uint64))
    assert np.isnan(relu(Tensor([np.nan])).data[0])


def test_mean_value():
    assert mean_all(Tensor([1.0, 2.0, 3.0, 6.0])).item() == 3.0


def test_square_gradient():
    x = Tensor([[3.0]], requires_grad=True)
    loss = _sum_of_squares(x)
    g = backward(loss, [x])[x.id]
    assert g[0, 0] == 6.0


def test_unreachable_param_gets_zero_gradient():
    x = Tensor([[1.0]], requires_grad=True)
    other = Tensor([[2.0]], requires_grad=True)
    loss = _sum_of_squares(x)
    grads = backward(loss, [x, other])
    assert grads[other.id][0, 0] == 0.0
    assert grads[x.id].shape == other.data.shape


def test_non_scalar_loss_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(AutodiffError, match="scalar"):
        backward(tanh(x), [x])


def test_nan_in_backward_names_op():
    a = Tensor([[1.0]], requires_grad=True)
    # the zero coefficient sends a zero gradient into linear, whose backward
    # then multiplies it by the infinite weight: 0 * inf is the NaN
    out = linear(a, np.array([[np.inf]]), np.zeros(1))
    loss = mean_all(combine(out, np.ones((1, 1)), 0.0, 1.0))
    with pytest.raises(AutodiffError, match="linear"):
        backward(loss, [a])


@pytest.mark.parametrize(
    "primitive, shapes",
    [
        (linear, ((2, 3), (4, 2), (4,))),
        (combine, ((2, 3), (3, 2))),
        (linear, ((2, 3), (4, 3), (3,))),
        (combine, ((4,), (3,))),
        (sq_diff_rowsum, ((2, 3), (2, 2))),
    ],
)
def test_shape_mismatch_names_primitive_and_shapes(primitive, shapes):
    operands = [Tensor(np.zeros(s)) for s in shapes]
    if primitive is combine:
        operands += [1.0, 1.0]  # scalar coefficients
    with pytest.raises(ShapeMismatch) as err:
        primitive(*operands)
    assert err.value.shapes == shapes
    assert err.value.primitive in str(err.value)


def test_bias_broadcast_add():
    # linear adds the bias to every row; its gradient sums over the batch
    x = Tensor(np.ones((4, 2)), requires_grad=True)
    b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = mean_all(linear(x, np.eye(2), b))
    grads = backward(loss, [x, b])
    assert np.array_equal(grads[b.id], np.full(2, 0.5))
    assert np.array_equal(grads[x.id], np.full((4, 2), 0.125))


def test_grad_check_sum_of_squares():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    err = grad_check(_sum_of_squares, x)
    assert err < 1e-8


def test_grad_check_constant_function():
    x = Tensor([1.0, -1.0], requires_grad=True)
    err = grad_check(lambda v: Tensor(4.0), x)
    assert err == 0.0


def _primitive_losses(x: Tensor):
    """Scalar losses exercising each primitive's backward."""
    n, d = x.shape
    c = Tensor(np.linspace(-1.0, 1.0, x.data.size).reshape(x.shape))
    rows = np.linspace(0.1, 0.9, n)  # per-row times or coefficients
    # layer weights reading v as the input: [out, d] plain, [out, d + 1] timed
    w_in = np.linspace(-0.8, 0.9, 5 * (d + 1)).reshape(5, d + 1)
    b_out = np.linspace(-0.2, 0.3, 5)
    # a constant input for v read as the [n, d] weight, plus a time slot
    x_in = np.linspace(-1.5, 1.0, 6 * d).reshape(6, d)
    b_w = np.linspace(0.1, 0.4, n)

    squared = _sum_of_squares  # nonlinear readout, so the gradient depends on the point

    return {
        "linear": lambda v: squared(linear(v, w_in[:, :d], b_out)),
        "linear_t_scalar": lambda v: squared(linear(v, w_in, b_out, 0.3)),
        "linear_t_rows": lambda v: squared(linear(v, w_in, b_out, rows)),
        "linear_weight": lambda v: squared(linear(x_in, v, b_w)),
        "linear_weight_t_scalar": lambda v: squared(linear(x_in[:, : d - 1], v, b_w, 0.7)),
        "linear_weight_t_rows": lambda v: squared(
            linear(x_in[:, : d - 1], v, b_w, np.linspace(-1.0, 1.0, 6))),
        "combine": lambda v: squared(combine(v, c, -0.4, 1.3)),
        "combine_unit": lambda v: squared(combine(c, v, 1.0, 1.0)),
        "combine_rows": lambda v: squared(combine(c, v, rows, rows[::-1] - 2.0)),
        "tanh": lambda v: mean_all(tanh(v)),
        "relu": lambda v: mean_all(relu(v)),
        "mean_all": mean_all,
        "sq_diff_rowsum": lambda v: mean_all(sq_diff_rowsum(v, c)),
    }


@pytest.mark.parametrize("name", sorted(_primitive_losses(Tensor(np.ones((2, 3))))))
def test_every_primitive_backward_against_finite_differences(name):
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(3, 4)), requires_grad=True)
    # keep relu inputs away from its kink so central differences are valid
    x.data[np.abs(x.data) < 1e-2] += 0.05
    f = _primitive_losses(x)[name]
    assert grad_check(f, x) < 1e-6


@pytest.mark.parametrize("t", [None, 0.35, np.array([0.0, 0.5, 1.0])])
def test_linear_bias_gradient_against_finite_differences(t):
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, size=(3, 2))
    W = rng.uniform(-1.0, 1.0, size=(4, 2 if t is None else 3))
    b = Tensor(rng.uniform(-1.0, 1.0, size=4), requires_grad=True)
    assert grad_check(lambda v: mean_all(tanh(linear(x, W, v, t))), b) < 1e-6


@pytest.mark.parametrize("t", [0.35, np.array([0.0, 0.5, 1.0])])
def test_linear_time_column_matches_concatenated_input(t):
    # the last weight column is the time weight: the layer equals a plain
    # affine map of [x, t], which is how checkpoints store time-conditioned layers
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, size=(3, 2))
    W = rng.uniform(-1.0, 1.0, size=(4, 3))
    b = rng.uniform(-1.0, 1.0, size=4)
    t_col = np.broadcast_to(np.asarray(t, dtype=np.float64), (3,))[:, None]
    expected = np.concatenate([x, t_col], axis=1) @ W.T + b
    assert np.max(np.abs(linear(x, W, b, t).data - expected)) < 1e-12


def test_linear_rejects_bad_time_shape():
    with pytest.raises(ShapeMismatch, match="linear time"):
        linear(np.zeros((3, 2)), np.zeros((4, 3)), np.zeros(4), np.zeros(2))
    with pytest.raises(ShapeMismatch, match="linear"):
        linear(np.zeros((3, 2)), np.zeros((4, 3)), np.zeros(4))


def test_two_layer_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    mlp = Mlp([3, 5, 1], activation="tanh", rng=rng, name="m")
    x = rng.uniform(-1.0, 1.0, size=(4, 3))

    for p in mlp.parameters():
        err = grad_check(lambda _: mean_all(mlp.forward(x)), p)
        assert err < 1e-4


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    b=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_gradient_linearity(a, b):
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-2.0, 2.0, size=(3, 2)), requires_grad=True)
    c = Tensor(rng.uniform(-2.0, 2.0, size=(3, 2)))
    loss1 = _sum_of_squares(x)
    loss2 = mean_all(sq_diff_rowsum(x, c))
    combined = combine(loss1, loss2, a, b)
    g1 = backward(loss1, [x])[x.id]
    g2 = backward(loss2, [x])[x.id]
    gc = backward(combined, [x])[x.id]
    assert np.all(np.abs(gc - (a * g1 + b * g2)) < 1e-12)


def test_forward_and_gradients_deterministic():
    def build_and_run():
        rng = np.random.default_rng(9)
        mlp = Mlp([2, 4, 2], activation="relu", rng=rng, name="m")
        x = rng.uniform(-1.0, 1.0, size=(5, 2))
        out = mlp.forward(x)
        loss = _sum_of_squares(out)
        grads = backward(loss, mlp.parameters())
        return out.data.copy(), [grads[p.id].copy() for p in mlp.parameters()]

    out_a, grads_a = build_and_run()
    out_b, grads_b = build_and_run()
    assert np.array_equal(out_a, out_b)
    for ga, gb in zip(grads_a, grads_b):
        assert np.array_equal(ga, gb)


def test_no_grad_suppresses_tape():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        out = tanh(x)
    assert out._backward is None
    grads = backward(mean_all(out), [x])
    assert grads[x.id][0] == 0.0


def test_tensor_module_exports_exactly_the_six_primitives():
    not_ops = {"Tensor", "GradientMap", "ShapeMismatch", "AutodiffError", "no_grad",
               "as_tensor", "backward", "grad_check"}
    assert set(latentflow.tensor.__all__) - not_ops == PRIMITIVES


def _recorded_ops(loss: Tensor) -> set[str]:
    ops, seen, stack = set(), set(), [loss]
    while stack:
        t = stack.pop()
        if t.id not in seen:
            seen.add(t.id)
            ops.add(t.op)
            stack.extend(t._parents)
    return ops - {"leaf"}


@pytest.mark.parametrize("method", ["latent_fm", "direct_fm", "node_euler"])
def test_training_losses_record_only_the_six_primitives(method, monkeypatch):
    ds = lf.toy_crossing()
    cfg = lf.RunConfig(iterations=1, batch_size=4, seed=0, node_steps=2)
    losses = []

    def recording_backward(loss, params):
        losses.append(loss)
        return backward(loss, params)

    monkeypatch.setattr(latentflow.model, "backward", recording_backward)
    if method == "latent_fm":
        spec = lf.ModelSpec(d_x=2, d_y=2, task=ds.task, enc_hidden=8, dyn_hidden=8)
        lf.train(lf.build_model(spec, seed=0), ds, cfg)
    elif method == "direct_fm":
        lf.direct_fm_train(lf.build_direct_fm(2, 2, ds.task, hidden=8), ds, cfg)
    else:
        node = lf.build_node_baseline(2, 2, ds.task, hidden=8)
        lf.node_baseline_train(node, ds, cfg)
    (loss,) = losses
    ops = _recorded_ops(loss)
    assert ops <= PRIMITIVES
    assert {"linear", "combine", "mean_all", "sq_diff_rowsum"} <= ops
