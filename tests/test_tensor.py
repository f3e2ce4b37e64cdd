import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentflow.nn import Mlp
from latentflow.tensor import (
    AutodiffError,
    ShapeMismatch,
    Tensor,
    add,
    backward,
    combine,
    grad_check,
    linear,
    matmul,
    mean_all,
    mul,
    no_grad,
    relu,
    scale,
    sq_diff_rowsum,
    sub,
    sum_all,
    tanh,
)


def test_matmul_identity():
    v = np.array([[1.7], [-0.3], [2.2]])
    out = matmul(Tensor(np.eye(3)), Tensor(v))
    assert np.array_equal(out.data, v)


def test_activation_values():
    assert tanh(Tensor([0.0])).data[0] == 0.0
    assert relu(Tensor([-2.5])).data[0] == 0.0
    assert relu(Tensor([2.5])).data[0] == 2.5


def test_mean_value():
    assert mean_all(Tensor([1.0, 2.0, 3.0, 6.0])).item() == 3.0


def test_square_gradient():
    x = Tensor([3.0], requires_grad=True)
    loss = sum_all(mul(x, x))
    g = backward(loss, [x])[x.id]
    assert g.data[0] == 6.0


def test_unreachable_param_gets_zero_gradient():
    x = Tensor([1.0], requires_grad=True)
    other = Tensor([2.0], requires_grad=True)
    loss = sum_all(mul(x, x))
    grads = backward(loss, [x, other])
    assert grads[other.id].data[0] == 0.0
    assert grads[x.id].data.shape == other.data.shape


def test_non_scalar_loss_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(AutodiffError, match="scalar"):
        backward(mul(x, x), [x])


def test_nan_in_backward_names_op():
    a = Tensor([1.0], requires_grad=True)
    b = Tensor([np.inf])
    # 0 * inf in the mul backward produces the NaN
    loss = mean_all(scale(mul(a, b), 0.0))
    with pytest.raises(AutodiffError, match="mul"):
        backward(loss, [a])


@pytest.mark.parametrize(
    "primitive, shapes",
    [
        (matmul, ((2, 3), (2, 3))),
        (add, ((2, 3), (3, 2))),
        (mul, ((2, 3), (2, 2))),
        (sub, ((4,), (3,))),
        (sq_diff_rowsum, ((2, 3), (2, 2))),
    ],
)
def test_shape_mismatch_names_primitive_and_shapes(primitive, shapes):
    a = Tensor(np.zeros(shapes[0]))
    b = Tensor(np.zeros(shapes[1]))
    with pytest.raises(ShapeMismatch) as err:
        primitive(a, b)
    assert err.value.shapes == shapes
    assert err.value.primitive in str(err.value)


def test_bias_broadcast_add():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    loss = sum_all(add(x, b))
    grads = backward(loss, [x, b])
    assert np.array_equal(grads[b.id].data, np.full(3, 4.0))
    assert np.array_equal(grads[x.id].data, np.ones((4, 3)))


def test_grad_check_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    err = grad_check(lambda v: sum_all(mul(v, v)), x)
    assert err < 1e-8


def test_grad_check_constant_function():
    x = Tensor([1.0, -1.0], requires_grad=True)
    err = grad_check(lambda v: Tensor(4.0), x)
    assert err == 0.0


def _primitive_losses(x: Tensor):
    """Scalar losses exercising each primitive's backward."""
    n, d = x.shape
    c = Tensor(np.linspace(-1.0, 1.0, x.data.size).reshape(x.shape))
    w = Tensor(np.linspace(0.3, 1.2, d * 2).reshape(d, 2))
    rows = np.linspace(0.1, 0.9, n)  # per-row times or coefficients
    # layer weights reading v as the input: [out, d] plain, [out, d + 1] timed
    w_in = np.linspace(-0.8, 0.9, 5 * (d + 1)).reshape(5, d + 1)
    b_out = np.linspace(-0.2, 0.3, 5)
    # a constant input for v read as the [n, d] weight, plus a time slot
    x_in = np.linspace(-1.5, 1.0, 6 * d).reshape(6, d)
    b_w = np.linspace(0.1, 0.4, n)

    def squared(t):  # nonlinear readout, so the gradient depends on the point
        return sum_all(mul(t, t))

    return {
        "matmul": lambda v: sum_all(matmul(v, w)),
        "linear": lambda v: squared(linear(v, w_in[:, :d], b_out)),
        "linear_t_scalar": lambda v: squared(linear(v, w_in, b_out, 0.3)),
        "linear_t_rows": lambda v: squared(linear(v, w_in, b_out, rows)),
        "linear_weight": lambda v: squared(linear(x_in, v, b_w)),
        "linear_weight_t_scalar": lambda v: squared(linear(x_in[:, : d - 1], v, b_w, 0.7)),
        "linear_weight_t_rows": lambda v: squared(
            linear(x_in[:, : d - 1], v, b_w, np.linspace(-1.0, 1.0, 6))),
        "combine": lambda v: squared(combine(v, c, -0.4, 1.3)),
        "combine_rows": lambda v: squared(combine(c, v, rows, rows[::-1] - 2.0)),
        "add": lambda v: sum_all(add(v, c)),
        "sub": lambda v: sum_all(sub(v, c)),
        "mul": lambda v: sum_all(mul(v, c)),
        "scale": lambda v: sum_all(scale(v, -1.7)),
        "tanh": lambda v: sum_all(tanh(v)),
        "relu": lambda v: sum_all(relu(v)),
        "mean_all": mean_all,
        "sum_all": sum_all,
        "sq_diff_rowsum": lambda v: sum_all(sq_diff_rowsum(v, c)),
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
    assert grad_check(lambda v: sum_all(tanh(linear(x, W, v, t))), b) < 1e-6


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
    mlp = Mlp.build([3, 5, 1], activation="tanh", rng=rng, name="m")
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
    loss1 = sum_all(mul(x, x))
    loss2 = sum_all(mul(x, c))
    combined = add(scale(loss1, a), scale(loss2, b))
    g1 = backward(loss1, [x])[x.id].data
    g2 = backward(loss2, [x])[x.id].data
    gc = backward(combined, [x])[x.id].data
    assert np.all(np.abs(gc - (a * g1 + b * g2)) < 1e-12)


def test_forward_and_gradients_deterministic():
    def build_and_run():
        rng = np.random.default_rng(9)
        mlp = Mlp.build([2, 4, 2], activation="relu", rng=rng, name="m")
        x = rng.uniform(-1.0, 1.0, size=(5, 2))
        out = mlp.forward(x)
        loss = mean_all(mul(out, out))
        grads = backward(loss, mlp.parameters())
        return out.data.copy(), [grads[p.id].data.copy() for p in mlp.parameters()]

    out_a, grads_a = build_and_run()
    out_b, grads_b = build_and_run()
    assert np.array_equal(out_a, out_b)
    for ga, gb in zip(grads_a, grads_b):
        assert np.array_equal(ga, gb)


def test_no_grad_suppresses_tape():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        out = mul(x, x)
    assert out._backward is None
    grads = backward(sum_all(out), [x])
    assert grads[x.id].data[0] == 0.0


def test_nonfinite_detection_is_a_checked_operation():
    assert not Tensor([1.0, 2.0]).has_nonfinite()
    assert Tensor([1.0, np.nan]).has_nonfinite()
    assert Tensor([np.inf]).has_nonfinite()
