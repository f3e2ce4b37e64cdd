import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentflow import solvers
from latentflow.nn import Mlp
from latentflow.solvers import SolveResult, SolverError, SolverSpec, solve, solve_with_grad
from latentflow.tensor import Tensor, backward, grad_check, mean_all, no_grad, sq_diff_rowsum

EXP_MINUS_ONE = 0.36787944117144233  # closed-form solution of z' = -z at t = 1


def test_constant_field_single_euler_step_is_exact():
    v = np.array([2.0, -0.5])
    res = solve(lambda z, t: v, np.array([1.0, 1.0]), 0.0, 1.0, SolverSpec.euler(1))
    assert np.array_equal(res.z_final.data, np.array([3.0, 0.5]))
    assert res.nfe == 1


def test_exact_linear_flow_field_reaches_endpoint_in_one_step():
    # dyadic endpoint coordinates make the arithmetic exact in binary floats
    z0 = np.array([[-1.0, 0.75], [-1.0, -0.25]])
    z1 = np.array([[1.0, -0.75], [1.0, 0.25]])
    res = solve(lambda z, t: z1 - z0, z0, 0.0, 1.0, SolverSpec.euler(1))
    assert np.array_equal(res.z_final.data, z1)


def test_dopri5_on_exponential_decay():
    res = solve(lambda z, t: -z, np.array([1.0]), 0.0, 1.0, SolverSpec.dopri5(1e-6, 1e-6))
    assert abs(res.z_final.data[0] - EXP_MINUS_ONE) < 1e-5


@pytest.mark.parametrize("rtol", [1e-3, 1e-5, 1e-7])
def test_dopri5_error_tracks_tolerance(rtol):
    res = solve(lambda z, t: -z, np.array([1.0]), 0.0, 1.0, SolverSpec.dopri5(rtol, rtol))
    assert abs(res.z_final.data[0] - EXP_MINUS_ONE) <= 100 * rtol


def _exp_error(spec: SolverSpec) -> float:
    res = solve(lambda z, t: -z, np.array([1.0]), 0.0, 1.0, spec)
    return abs(res.z_final.data[0] - EXP_MINUS_ONE)


def test_euler_halving_steps_halves_error():
    ratio = _exp_error(SolverSpec.euler(64)) / _exp_error(SolverSpec.euler(128))
    assert 1.6 < ratio < 2.4


def test_rk4_halving_steps_cuts_error_sixteenfold():
    ratio = _exp_error(SolverSpec.rk4(8)) / _exp_error(SolverSpec.rk4(16))
    assert 12.8 < ratio < 19.2


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=40))
def test_fixed_step_nfe_identities(n):
    z0 = np.array([0.3])
    assert solve(lambda z, t: -z, z0, 0.0, 1.0, SolverSpec.euler(n)).nfe == n
    assert solve(lambda z, t: -z, z0, 0.0, 1.0, SolverSpec.rk4(n)).nfe == 4 * n


@pytest.mark.parametrize("field, rtol", [
    (lambda z, t: -z, 1e-6),
    (lambda z, t: -50.0 * z, 1e-6),
    (lambda z, t: np.sin(10.0 * t) * np.ones_like(z), 1e-8),
])
def test_dopri5_nfe_identity(field, rtol):
    res = solve(field, np.array([1.0, -0.5]), 0.0, 1.0, SolverSpec.dopri5(rtol, rtol))
    assert res.nfe == 1 + 6 * (res.accepted_steps + res.rejected_steps)
    assert res.accepted_steps >= 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), n=st.integers(min_value=1, max_value=12),
       tol=st.sampled_from([1e-3, 1e-5, 1e-7]))
def test_nfe_identities_on_random_linear_fields(seed, n, tol):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-2.0, 2.0, size=(3, 3))
    z0 = rng.uniform(-1.0, 1.0, size=(4, 3))
    calls = [0]

    def field(z, t):
        calls[0] += 1
        return z @ A.T + t

    for spec, expected in ((SolverSpec.euler(n), n), (SolverSpec.rk4(n), 4 * n),
                           (SolverSpec.dopri5(tol, tol), None)):
        calls[0] = 0
        res = solve(field, z0, 0.0, 1.0, spec)
        assert res.nfe == calls[0]
        if expected is None:
            assert res.nfe == 1 + 6 * (res.accepted_steps + res.rejected_steps)
        else:
            assert res.nfe == expected


def test_dopri5_counts_rejections():
    # stiff decay at loose initial step forces at least one rejection
    res = solve(lambda z, t: -80.0 * z, np.array([1.0]), 0.0, 1.0,
                SolverSpec.dopri5(1e-9, 1e-9))
    assert res.nfe == 1 + 6 * (res.accepted_steps + res.rejected_steps)


def test_invalid_time_interval_rejected():
    with pytest.raises(ValueError, match="t0 < t1"):
        solve(lambda z, t: z, np.array([1.0]), 1.0, 0.0, SolverSpec.euler(1))


def test_step_size_underflow_raises():
    # value jumps at every time scale: the error estimate never settles
    rough = lambda z, t: 1e8 * math.sin(t * 1e14) * np.ones_like(z)
    with pytest.raises(SolverError, match="stiff or invalid"):
        solve(rough, np.array([1.0]), 0.0, 1.0, SolverSpec.dopri5(1e-6, 1e-6))


def test_nan_state_raises():
    def field(z, t):
        return np.full_like(z, np.nan) if t > 0.4 else np.zeros_like(z)

    with pytest.raises(SolverError, match="NaN"):
        solve(field, np.array([1.0]), 0.0, 1.0, SolverSpec.euler(4))
    with pytest.raises(SolverError, match="NaN"):
        solve(field, np.array([1.0]), 0.0, 1.0, SolverSpec.dopri5(1e-6, 1e-6))


@pytest.mark.parametrize("spec", ["euler:2", "rk4:1", "dopri5"])
def test_overflowing_state_raises(spec):
    # the state overflows to inf within the first step or two; it must not be returned
    with pytest.raises(SolverError, match="infinite"):
        solve(lambda z, t: z * 1e308, np.ones((1, 2)), 0.0, 1.0, SolverSpec.parse(spec))


def test_solver_spec_parsing_round_trip():
    assert SolverSpec.parse("euler:8") == SolverSpec.euler(8)
    assert SolverSpec.parse("rk4:4") == SolverSpec.rk4(4)
    assert SolverSpec.parse("dopri5:1e-3,1e-4") == SolverSpec.dopri5(1e-3, 1e-4)
    assert SolverSpec.parse("dopri5") == SolverSpec.dopri5(1e-3, 1e-3)
    for spec in (SolverSpec.euler(3), SolverSpec.rk4(2), SolverSpec.dopri5(1e-5, 1e-6)):
        assert SolverSpec.parse(spec.label()) == spec


@pytest.mark.parametrize("text", ["euler:0", "euler:-1", "euler:x", "foo:3", "dopri5:0,1e-3"])
def test_solver_spec_rejects_invalid(text):
    with pytest.raises(ValueError):
        SolverSpec.parse(text)


def test_grad_solve_single_euler_step_constant_dynamics():
    # z1 = z0 + (t1 - t0) * b, so dz1/db is exactly the interval length, and
    # the mean over z1's two entries halves it
    rng = np.random.default_rng(0)
    f = Mlp([2, 2], rng=rng, name="f")
    weight, bias = f.parameters()
    weight.data = np.zeros_like(weight.data)

    z1, nfe = solve_with_grad(lambda z, t: f.forward(z), Tensor(np.zeros((1, 2))),
                              0.0, 0.5, SolverSpec.euler(1))
    grads = backward(mean_all(z1), f.parameters())
    assert nfe == 1
    assert np.allclose(grads[bias.id], np.full(2, 0.25), atol=1e-15)


def test_grad_solve_gradient_wrt_initial_state_of_constant_field_is_identity():
    z0 = Tensor(np.array([[0.25, -1.0]]), requires_grad=True)
    v = Tensor(np.array([[2.0, 3.0]]))
    # an odd step count, so a sign error in the update's backward cannot cancel
    z1, _ = solve_with_grad(lambda z, t: v, z0, 0.0, 1.0, SolverSpec.euler(3))
    g = backward(mean_all(z1), [z0])[z0.id]
    assert np.array_equal(g, np.full((1, 2), 0.5))  # d mean / d z1 for 2 entries


@pytest.mark.parametrize("method, expected_nfe", [("euler", 8), ("rk4", 32)])
def test_grad_solve_matches_finite_differences(method, expected_nfe):
    rng = np.random.default_rng(3)
    f = Mlp([2, 6, 2], activation="tanh", time_conditioned=True, rng=rng, name="f")
    x = rng.uniform(-1.0, 1.0, size=(3, 2))
    target = rng.uniform(-1.0, 1.0, size=(3, 2))

    def loss_of(_):
        z1, _nfe = solve_with_grad(lambda z, t: f.forward(z, t), Tensor(x),
                                   0.0, 1.0, SolverSpec(method, 8))
        return mean_all(sq_diff_rowsum(z1, Tensor(target)))

    _, nfe = solve_with_grad(lambda z, t: f.forward(z, t), Tensor(x), 0.0, 1.0,
                             SolverSpec(method, 8))
    assert nfe == expected_nfe
    worst = max(grad_check(loss_of, p) for p in f.parameters())
    assert worst < 1e-4


def test_grad_solve_rejects_adaptive_and_bad_steps():
    with pytest.raises(ValueError, match="fixed-step"):
        solve_with_grad(lambda z, t: z, Tensor(np.zeros((1, 1))), 0.0, 1.0,
                        SolverSpec.dopri5())


@pytest.mark.parametrize("text", ["euler:3", "rk4:3"])
def test_solve_steps_the_same_bits_as_the_grad_solve(text):
    # one fixed-step loop: inference and training integrate identically
    rng = np.random.default_rng(7)
    f = Mlp([3, 8, 3], activation="tanh", time_conditioned=True, rng=rng, name="f")
    z0 = rng.uniform(-1.0, 1.0, size=(5, 3))
    spec = SolverSpec.parse(text)
    res = solve(lambda z, t: f.forward(z, t).data, z0, 0.0, 1.0, spec)
    with no_grad():
        z1, nfe = solve_with_grad(lambda z, t: f.forward(z, t), Tensor(z0), 0.0, 1.0, spec)
    assert np.array_equal(res.z_final.data, z1.data)
    assert res.nfe == nfe


def _latent_field(seed: int = 3):
    # the synth-sized dynamics network: latent 34, hidden 64, time-conditioned
    f = Mlp([34, 64, 64, 34], activation="tanh", time_conditioned=True,
            rng=np.random.default_rng(seed), name="h")
    return f, lambda z, t: f.forward(z, t).data


@pytest.mark.parametrize("text", ["euler:7", "rk4:3"])
def test_blocked_solve_equals_whole_array_grad_solve(text):
    # 2,049 rows split into three blocks of 683; every row keeps its bits.
    # This pins a BLAS property as well as the solver's: on OpenBLAS 0.3.31 a
    # row of a matrix product has the same bits for every row count of at
    # least 256. A BLAS whose kernels depend on the row count fails this test
    # with a correct solver (the manifest's "environment" names the BLAS).
    f, field = _latent_field()
    z0 = np.random.default_rng(11).uniform(-1.0, 1.0, size=(2049, 34))
    spec = SolverSpec.parse(text)
    res = solve(field, z0, 0.0, 1.0, spec)
    with no_grad():
        z1, nfe = solve_with_grad(lambda z, t: f.forward(z, t), Tensor(z0), 0.0, 1.0, spec)
    assert np.array_equal(res.z_final.data, z1.data)
    assert res.nfe == nfe


def test_blocked_dopri5_keeps_one_step_control(monkeypatch):
    # array_equal across 683- and 2,049-row products: the same OpenBLAS
    # property as the test above.
    _, field = _latent_field()
    z0 = np.random.default_rng(12).uniform(-1.0, 1.0, size=(2049, 34))
    spec = SolverSpec.dopri5(1e-5, 1e-5)
    blocked = solve(field, z0, 0.0, 1.0, spec)
    monkeypatch.setattr(solvers, "_BLOCK_ROWS", z0.shape[0])  # one block: all rows at once
    whole = solve(field, z0, 0.0, 1.0, spec)
    assert np.array_equal(blocked.z_final.data, whole.z_final.data)
    assert (blocked.nfe, blocked.accepted_steps, blocked.rejected_steps) == (
        whole.nfe, whole.accepted_steps, whole.rejected_steps)
    assert blocked.accepted_steps > 1


@pytest.mark.parametrize("text", ["euler:3", "rk4:2", "dopri5"])
@pytest.mark.parametrize("rows, blocks", [(2049, 3), (1024, 1)])
def test_field_is_called_once_per_block_per_evaluation(text, rows, blocks):
    calls = [0]

    def field(z, t):
        calls[0] += 1
        return -z

    res = solve(field, np.ones((rows, 2)), 0.0, 1.0, SolverSpec.parse(text))
    assert calls[0] == blocks * res.nfe


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=50_000))
def test_row_blocks_tile_rows_in_nearly_equal_bounded_blocks(n):
    blocks = solvers._row_blocks(n)
    assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
    sizes = [rows.stop - rows.start for rows in blocks]
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= 1024
    if n > 1024:
        assert min(sizes) >= 512


@pytest.mark.parametrize("spec", ["euler:2", "rk4:1", "dopri5"])
def test_overflow_in_last_block_raises(spec):
    z0 = np.full((2049, 2), 0.5)
    z0[-1] = 1e200  # z * |z| overflows in this row only
    with pytest.raises(SolverError, match="infinite"):
        solve(lambda z, t: z * np.abs(z), z0, 0.0, 1.0, SolverSpec.parse(spec))
