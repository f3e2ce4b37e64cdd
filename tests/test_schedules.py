import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentflow.schedules import SCHEDULES, get_schedule, interpolate, target_velocity
from latentflow.tensor import ShapeMismatch, Tensor

ALL_KINDS = sorted(SCHEDULES)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_endpoint_invariants_exact(kind):
    s = get_schedule(kind)
    assert float(s.alpha(0.0)) == 1.0
    assert float(s.beta(0.0)) == 0.0
    assert float(s.alpha(1.0)) == 0.0
    assert float(s.beta(1.0)) == 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_interpolate_hits_endpoints_exactly(kind):
    s = get_schedule(kind)
    z0 = np.array([[0.5, -1.25]])
    z1 = np.array([[2.0, 0.75]])
    assert np.array_equal(interpolate(s, z0, z1, 0.0), z0)
    assert np.array_equal(interpolate(s, z0, z1, 1.0), z1)


_FINITE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS),
       values=st.lists(_FINITE, min_size=12, max_size=12),
       ends=st.lists(st.sampled_from([0.0, 1.0]), min_size=3, max_size=3),
       on_tape=st.booleans())
def test_interpolate_endpoints_exact_for_scalar_and_per_row_t(kind, values, ends, on_tape):
    s = get_schedule(kind)
    z0 = np.array(values[:6]).reshape(3, 2)
    z1 = np.array(values[6:]).reshape(3, 2)

    def state(t):
        out = interpolate(s, Tensor(z0) if on_tape else z0, z1, t)
        return out.data if on_tape else out

    assert np.array_equal(state(0.0), z0)
    assert np.array_equal(state(1.0), z1)
    t = np.array(ends)
    expected = np.where(t[:, None] == 0.0, z0, z1)
    assert np.array_equal(state(t), expected)


def test_linear_midpoint():
    s = get_schedule("linear")
    assert interpolate(s, np.array([[0.0]]), np.array([[1.0]]), 0.5)[0, 0] == 0.5


def test_concave_midpoint_is_diagonal():
    s = get_schedule("concave")
    out = interpolate(s, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.5)
    expected = math.sqrt(2.0) / 2.0
    assert np.allclose(out, [[expected, expected]], atol=1e-15)


def test_linear_velocity_is_constant_difference():
    s = get_schedule("linear")
    z0 = np.array([[0.5, -1.0]])
    z1 = np.array([[2.0, 3.0]])
    expected = z1 - z0
    for t in np.linspace(0.0, 1.0, 11):
        assert np.array_equal(target_velocity(s, z0, z1, float(t)), expected)


def test_concave_initial_velocity_points_at_label_embedding():
    s = get_schedule("concave")
    z0 = np.array([[1.0, 2.0]])
    z1 = np.array([[-3.0, 0.5]])
    v = target_velocity(s, z0, z1, 0.0)
    assert np.allclose(v, (math.pi / 2.0) * z1, atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_coefficient_derivatives_match_finite_differences_on_grid(kind):
    # raw coefficient functions extend smoothly past [0, 1], so central
    # differences are valid at the endpoints too
    s = get_schedule(kind)
    h = 1e-5
    t = np.linspace(0.0, 1.0, 101)
    fd_alpha = (s.alpha(t + h) - s.alpha(t - h)) / (2 * h)
    fd_beta = (s.beta(t + h) - s.beta(t - h)) / (2 * h)
    assert np.max(np.abs(fd_alpha - s.dalpha(t))) < 1e-6
    assert np.max(np.abs(fd_beta - s.dbeta(t))) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    t=st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
)
def test_interpolant_derivative_matches_velocity(kind, t):
    s = get_schedule(kind)
    z0 = np.array([[1.0, -0.5], [0.25, 2.0]])
    z1 = np.array([[-1.0, 0.5], [1.5, -2.0]])
    h = 1e-5
    fd = (interpolate(s, z0, z1, min(t + h, 1.0)) - interpolate(s, z0, z1, max(t - h, 0.0)))
    fd = fd / (min(t + h, 1.0) - max(t - h, 0.0))
    v = target_velocity(s, z0, z1, t)
    assert np.max(np.abs(fd - v)) < 1e-6


def test_t_outside_unit_interval_rejected():
    s = get_schedule("linear")
    z = np.zeros((1, 2))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        interpolate(s, z, z, -0.01)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        target_velocity(s, z, z, 1.01)


def test_shape_mismatch_rejected():
    s = get_schedule("linear")
    with pytest.raises(ShapeMismatch):
        interpolate(s, np.zeros((1, 2)), np.zeros((1, 3)), 0.5)


def test_per_sample_times_on_tape_match_scalar_results():
    s = get_schedule("concave")
    z0 = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]), requires_grad=True)
    z1 = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]), requires_grad=True)
    times = np.array([0.25, 0.75])
    batched = interpolate(s, z0, z1, times)
    for i, t in enumerate(times):
        single = interpolate(s, z0.data[i : i + 1], z1.data[i : i + 1], float(t))
        assert np.allclose(batched.data[i], single[0], atol=1e-15)


def test_unknown_schedule_rejected():
    with pytest.raises(ValueError, match="unknown schedule"):
        get_schedule("spiral")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_euler_transport_consistency(kind):
    # forward Euler on the exact velocity field is a left Riemann sum, so the
    # transport error is h/2 * |v(1) - v(0)| + O(h^2); for the curved
    # schedules that is ~1.1e-3 at n=1000, shrinking linearly with h
    s = get_schedule(kind)
    z0 = np.array([1.0, 0.0])
    z1 = np.array([0.0, 1.0])

    def transport(n: int) -> float:
        h = 1.0 / n
        z = z0.copy()
        for i in range(n):
            z = z + h * target_velocity(s, z0, z1, i * h)
        return float(np.linalg.norm(z - z1) / np.linalg.norm(z1))

    err_1k = transport(1000)
    if kind == "linear":
        assert err_1k < 1e-12  # constant field: Euler is exact
    else:
        assert err_1k < 1.5e-3
        err_10k = transport(10000)
        assert err_10k < 1.5e-4
        assert err_1k / err_10k == pytest.approx(10.0, rel=0.05)
