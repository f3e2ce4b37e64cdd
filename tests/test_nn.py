import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentflow.nn import (
    AdamState,
    ColumnMap,
    Mlp,
    OptimizerError,
    adam_step,
    cosine_lr,
    load_checkpoint,
    save_checkpoint,
)
from latentflow.tensor import ShapeMismatch, Tensor, backward, mean_all, relu, sq_diff_rowsum, tanh


def _single_layer(weight, time_conditioned=False):
    """A one-layer Mlp with the given weight and a zero bias."""
    n_out, n_in = weight.shape
    mlp = Mlp([n_in - int(time_conditioned), n_out], time_conditioned=time_conditioned)
    mlp.layers[0].weight.data[...] = weight
    mlp.layers[0].bias.data[...] = 0.0
    return mlp


def test_zero_initialized_layer_maps_to_zero():
    mlp = _single_layer(np.zeros((3, 2)))
    out = mlp.forward(np.array([[1.0, -2.0], [0.5, 4.0]]))
    assert np.array_equal(out.data, np.zeros((2, 3)))


def test_identity_layer_is_identity():
    mlp = _single_layer(np.eye(3))
    x = np.array([[0.25, -1.0, 2.0]])
    assert np.array_equal(mlp.forward(x).data, x)


def test_time_conditioned_layer_reads_time_slot():
    # one input feature plus the appended time slot; weights select the slot
    mlp = _single_layer(np.array([[0.0, 1.0]]), time_conditioned=True)
    out = mlp.forward(np.array([[0.7]]), t=0.25)
    assert out.data[0, 0] == 0.25


def test_time_argument_contract():
    rng = np.random.default_rng(0)
    plain = Mlp([2, 2], rng=rng)
    conditioned = Mlp([2, 2], time_conditioned=True, rng=rng)
    with pytest.raises(ValueError, match="time-conditioned"):
        conditioned.forward(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="not time-conditioned"):
        plain.forward(np.zeros((1, 2)), t=0.5)


def test_layer_dimension_mismatch_names_layer_index():
    rng = np.random.default_rng(0)
    mlp = Mlp([3, 4, 2], rng=rng)
    with pytest.raises(ShapeMismatch, match="mlp layer 0"):
        mlp.forward(np.zeros((1, 5)))


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=5))
def test_parameter_count_formula(dims):
    mlp = Mlp(dims, rng=np.random.default_rng(0))
    expected = sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))
    assert sum(p.data.size for p in mlp.parameters()) == expected


def test_adam_zero_gradient_keeps_parameters():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True, name="p")
    state = AdamState.for_params([p])
    before = p.data.copy()
    adam_step([p], {p.id: np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(p.data, before)
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    # bias correction makes the first update m_hat / sqrt(v_hat) = sign(g)
    p = Tensor(np.array([0.0, 1.0]), requires_grad=True, name="p")
    state = AdamState.for_params([p])
    g = np.array([0.5, -3.0])
    adam_step([p], {p.id: g}, state, lr=1e-2)
    update = p.data - np.array([0.0, 1.0])
    assert np.allclose(update, -1e-2 * np.sign(g), rtol=1e-6)


def test_adam_reduces_convex_quadratic_monotonically():
    p = Tensor(np.array([[3.0]]), requires_grad=True, name="p")
    target = Tensor(np.array([[1.0]]))

    def loss_value():
        return mean_all(sq_diff_rowsum(p, target))

    state = AdamState.for_params([p])
    values = [loss_value().item()]
    for _ in range(2):
        loss = loss_value()
        grads = backward(loss, [p])
        adam_step([p], grads, state, lr=0.05)
        values.append(loss_value().item())
    assert values[0] > values[1] > values[2]


def test_adam_nan_gradient_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True, name="weights")
    state = AdamState.for_params([p])
    with pytest.raises(OptimizerError, match="weights"):
        adam_step([p], {p.id: np.array([np.nan])}, state, lr=0.1)


def _adam_reference(values, grads_per_step, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: per-parameter moments and updates, one array at a time."""
    values = [v.copy() for v in values]
    m = [np.zeros_like(v) for v in values]
    v2 = [np.zeros_like(v) for v in values]
    for step, (grads, lr) in enumerate(zip(grads_per_step, lrs), start=1):
        bc1 = 1.0 - beta1 ** step
        bc2 = 1.0 - beta2 ** step
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v2[i] = beta2 * v2[i] + (1.0 - beta2) * (g * g)
            values[i] = values[i] - lr * (m[i] / bc1) / (np.sqrt(v2[i] / bc2) + eps)
    return values


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2).map(tuple),
        min_size=1, max_size=5),
    steps=st.integers(min_value=1, max_value=6),
    rebind_at=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_flat_adam_bit_identical_to_per_parameter_reference(shapes, steps, rebind_at, seed):
    rng = np.random.default_rng(seed)
    start = [rng.standard_normal(shape) for shape in shapes]
    grads_per_step = [[rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3) for shape in shapes]
                      for _ in range(steps)]
    lrs = list(rng.uniform(1e-4, 1e-1, size=steps))
    params = [Tensor(v, requires_grad=True, name=f"p{i}") for i, v in enumerate(start)]
    state = AdamState.for_params(params)
    for step, (grads, lr) in enumerate(zip(grads_per_step, lrs)):
        if step == rebind_at:  # as a checkpoint load or snapshot restore does
            params[0].data = params[0].data.copy()
        adam_step(params, {p.id: g for p, g in zip(params, grads)}, state, lr)
    for p, ref in zip(params, _adam_reference(start, grads_per_step, lrs)):
        assert p.data.shape == ref.shape
        assert np.array_equal(p.data, ref)


def test_adam_nan_gradient_changes_nothing():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="a")
    q = Tensor(np.array([3.0]), requires_grad=True, name="b")
    state = AdamState.for_params([p, q])
    with pytest.raises(OptimizerError, match="NaN gradient for parameter b"):
        adam_step([p, q], {p.id: np.array([0.5, 0.5]), q.id: np.array([np.nan])}, state, lr=0.1)
    assert np.array_equal(p.data, [1.0, 2.0]) and state.step == 0


def test_adam_missing_gradient_rejected():
    p = Tensor(np.array([1.0]), requires_grad=True, name="p")
    state = AdamState.for_params([p])
    with pytest.raises(OptimizerError, match="missing"):
        adam_step([p], {}, state, lr=0.1)


def test_cosine_lr_boundary_values():
    assert cosine_lr(0, 100, 0.3) == 0.3
    assert cosine_lr(100, 100, 0.3) == pytest.approx(0.0, abs=1e-16)
    assert cosine_lr(50, 100, 0.3) == pytest.approx(0.15)


def test_cosine_lr_invalid_inputs():
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 0.1)
    with pytest.raises(ValueError):
        cosine_lr(5, 4, 0.1)


@settings(max_examples=40, deadline=None)
@given(step=st.integers(min_value=0, max_value=1000))
def test_cosine_lr_within_bounds_and_decreasing(step):
    total = 1000
    lr = cosine_lr(step, total, 1.0)
    assert 0.0 <= lr <= 1.0
    if step > 0:
        assert lr <= cosine_lr(step - 1, total, 1.0)


def test_small_mlp_fits_sine():
    rng = np.random.default_rng(0)
    x = np.linspace(-math.pi, math.pi, 64)[:, None]
    y = np.sin(x)
    mlp = Mlp([1, 32, 1], activation=tanh, rng=rng, name="sin")
    params = mlp.parameters()
    state = AdamState.for_params(params)
    loss = None
    for step in range(5000):
        loss = mean_all(sq_diff_rowsum(mlp.forward(x), Tensor(y)))
        grads = backward(loss, params)
        adam_step(params, grads, state, cosine_lr(step, 5000, 1e-2))
    assert loss.item() < 1e-3


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    mlp = Mlp([3, 7, 2], activation=relu, rng=rng, name="net")
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, mlp.named_parameters())
    loaded = load_checkpoint(path)
    for name, p in mlp.named_parameters():
        assert np.array_equal(loaded[name], p.data)
        # native order: a big-endian ">f8" array fails this on a little-endian host
        assert loaded[name].dtype == np.float64
        assert loaded[name].flags.writeable


_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308 / 3, 1.7e308, -1.7e308]


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
       rows=st.integers(min_value=1, max_value=3))
def test_checkpoint_round_trip_keeps_every_bit(tmp_path_factory, values, rows):
    flat = np.array(values + _SPECIAL_VALUES)
    flat = np.resize(flat, rows * math.ceil(flat.size / rows))
    params = [Tensor(flat.reshape(rows, -1), name="w"), Tensor(flat[::-1].copy(), name="b")]
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_checkpoint(path, [(p.name, p) for p in params])
    loaded = load_checkpoint(path)
    for p in params:
        assert loaded[p.name].shape == p.shape
        assert np.array_equal(loaded[p.name].view(np.uint64), p.data.view(np.uint64))


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other", "params": []}')
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


def test_column_map_pads_truncates_and_passes_through():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ColumnMap(2, 3).forward(x).data, [[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]])
    assert np.array_equal(ColumnMap(2, 1).forward(x).data, [[1.0], [3.0]])
    assert ColumnMap(2, 2).parameters() == [] and ColumnMap(2, 2).named_parameters() == []
    with pytest.raises(ShapeMismatch):
        ColumnMap(3, 3).forward(x)
    # the pass-through keeps the tape, so gradients reach its input
    t = Tensor(x, requires_grad=True)
    out = ColumnMap(2, 2).forward(t)
    assert out is t
    grads = backward(mean_all(sq_diff_rowsum(out, Tensor(np.zeros((2, 2))))), [t])
    assert np.array_equal(grads[t.id], x)
