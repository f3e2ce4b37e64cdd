import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentflow as lf
from latentflow.model import mse
from latentflow.objectives import LossBreakdown, TimeSampler, flow_loss, label_ae_loss, total_loss
from latentflow.schedules import get_schedule
from latentflow.solvers import SolverSpec, solve
from latentflow.tensor import Tensor, backward, combine, grad_check

from conftest import make_small_model


class StubModel:
    """Identity encoders/decoder with a pluggable velocity function."""

    def __init__(self, velocity_fn, schedule="linear"):
        self.schedule = get_schedule(schedule)
        self._velocity_fn = velocity_fn

    def encode_data(self, x):
        return Tensor(x)

    def encode_label(self, y):
        return Tensor(y)

    def decode_label(self, z):
        return z if isinstance(z, Tensor) else Tensor(z)

    def velocity(self, z, t):
        return self._velocity_fn(z, t)


class ZeroEncoderTrap:
    """Constant data encoder plus the time-scaling dynamics h(z, t) = z / t.

    Under the linear schedule the state is t * z1, so dividing by t
    reproduces the target velocity z1 everywhere on (0, 1] without the
    dynamics ever seeing the data.
    """

    def __init__(self):
        self.schedule = get_schedule("linear")

    def encode_data(self, x):
        return Tensor(np.zeros_like(np.asarray(x, dtype=np.float64)))

    def encode_label(self, y):
        return Tensor(y)

    def decode_label(self, z):
        return z if isinstance(z, Tensor) else Tensor(z)

    def velocity(self, z, t):
        arr = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
        ts = np.asarray(t, dtype=np.float64)
        if ts.ndim == 0:
            ts = np.full(arr.shape[0], float(ts))
        safe = np.where(ts > 0, ts, 1.0)
        out = np.where(ts[:, None] > 0, arr / safe[:, None], 0.0)
        return Tensor(out)

    def field(self, z, t):
        return self.velocity(z, t).data


def test_sampler_all_zero_when_p_is_one():
    t = TimeSampler(p_zero=1.0, seed=0).sample(1000)
    assert np.all(t == 0.0)


def test_sampler_uniform_mean_when_p_is_zero():
    t = TimeSampler(p_zero=0.0, seed=1).sample(100_000)
    assert np.all((t >= 0.0) & (t < 1.0))
    assert abs(t.mean() - 0.5) < 0.01


def test_sampler_zero_fraction_matches_p():
    t = TimeSampler(p_zero=0.1, seed=2).sample(100_000)
    assert abs(np.mean(t == 0.0) - 0.1) < 0.01


@settings(max_examples=30, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0), n=st.integers(min_value=1, max_value=64))
def test_sampler_outputs_in_unit_interval(p, n):
    t = TimeSampler(p_zero=p, seed=3).sample(n)
    assert t.shape == (n,)
    assert np.all((t >= 0.0) & (t <= 1.0))


def test_sampler_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeSampler(p_zero=1.5)
    with pytest.raises(ValueError):
        TimeSampler(p_zero=0.5).sample(0)


def test_flow_loss_zero_when_velocity_is_exact():
    x = np.array([[0.5, -1.0], [2.0, 0.25]])
    y = np.array([[1.5, 1.0], [-1.0, 0.75]])
    target = y - x  # linear schedule with identity encoders

    model = StubModel(lambda z, t: Tensor(target))
    times = np.array([0.3, 0.8])
    assert flow_loss(model, x, y, times).item() == 0.0


def test_flow_loss_of_zero_velocity_is_squared_endpoint_gap():
    x = np.array([[0.0, 0.0]])
    y = np.array([[1.0, 0.0]])
    model = StubModel(lambda z, t: Tensor(np.zeros_like(z.data)))
    loss = flow_loss(model, x, y, np.array([0.5]))
    assert loss.item() == 1.0


def test_flow_loss_validates_inputs():
    model = StubModel(lambda z, t: z)
    with pytest.raises(ValueError, match="nonempty"):
        flow_loss(model, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="times"):
        flow_loss(model, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(3))


def test_label_ae_loss_zero_for_exact_inverse_without_noise():
    model = StubModel(lambda z, t: z)
    y = np.array([[0.5, -2.0], [1.0, 0.0]])
    rng = np.random.default_rng(0)
    assert label_ae_loss(model, y, 0.0, rng).item() == 0.0


def test_label_ae_loss_sigma_zero_never_consumes_rng():
    model = StubModel(lambda z, t: z)
    y = np.array([[0.5, -2.0]])
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state["state"]["state"]
    label_ae_loss(model, y, 0.0, rng)
    assert rng.bit_generator.state["state"]["state"] == before


def test_label_ae_loss_sigma_zero_equals_plain_reconstruction():
    model = make_small_model(seed=9)
    y = lf.toy_crossing().y
    noisy_form = label_ae_loss(model, y, 0.0, np.random.default_rng(0)).item()
    with lf.no_grad():
        rec = model.decode_label(model.encode_label(y)).data
    plain = float(np.mean(np.sum((rec - y) ** 2, axis=1)))
    assert noisy_form == plain


def test_total_zero_when_both_components_zero():
    x = np.array([[0.5, -1.0]])
    y = np.array([[1.5, 1.0]])
    model = StubModel(lambda z, t: Tensor(y - x))  # exact velocity, identity AE
    _, bd = total_loss(model, x, y, TimeSampler(0.0, seed=0), 0.0,
                       np.random.default_rng(0))
    assert bd.flow_loss == 0.0 and bd.label_ae_loss == 0.0 and bd.total == 0.0


def test_label_ae_noise_expectation_matches_sigma():
    # identity encoder/decoder: loss per draw is |eps|^2 averaged over the
    # batch, so its expectation is sigma^2 * d_label
    model = StubModel(lambda z, t: z)
    sigma, d = 0.7, 3
    y = np.zeros((100, d))
    rng = np.random.default_rng(5)
    draws = [label_ae_loss(model, y, sigma, rng).item() for _ in range(200)]
    expected = sigma * sigma * d
    assert abs(np.mean(draws) - expected) / expected < 0.05


def test_total_is_bitwise_sum_of_components():
    model = make_small_model(seed=5)
    ds = lf.toy_crossing()
    lt, bd = total_loss(model, ds.x, ds.y, TimeSampler(0.1, seed=42), 0.3,
                        np.random.default_rng(7))
    # same stream order: times first, then the embedding noise
    times = TimeSampler(0.1, seed=42).sample(ds.n)
    lf_ = flow_loss(model, ds.x, ds.y, times).item()
    lae = label_ae_loss(model, ds.y, 0.3, np.random.default_rng(7)).item()
    assert bd.flow_loss == lf_
    assert bd.label_ae_loss == lae
    assert bd.total == lf_ + lae
    assert lt.item() == bd.total


def test_toy_step_encodes_labels_once_on_a_small_tape():
    ds = lf.toy_crossing()
    spec = lf.ModelSpec(d_x=2, d_y=2, task=ds.task, enc_hidden=32)
    model = lf.build_model(spec, seed=0)
    params = model.parameters()
    calls = (model.label_encoder.calls, model.dynamics.calls)
    first_id = Tensor(0.0).id
    loss, _ = total_loss(model, ds.x, ds.y, TimeSampler(0.1, seed=0), 0.1,
                         np.random.default_rng(0))
    backward(loss, params)
    tape_ids = Tensor(0.0).id - first_id - 1
    assert model.label_encoder.calls - calls[0] == 1
    assert model.dynamics.calls - calls[1] == 1
    assert tape_ids <= 22


def test_shared_label_embedding_gives_separate_terms_gradients():
    # g(y) feeds both terms once; gradients equal those of the two losses built apart
    model = make_small_model(seed=4)
    ds = lf.toy_crossing()
    params = model.parameters()
    lt, _ = total_loss(model, ds.x, ds.y, TimeSampler(0.1, seed=3), 0.2,
                       np.random.default_rng(5))
    shared = backward(lt, params)
    times = TimeSampler(0.1, seed=3).sample(ds.n)
    apart = combine(flow_loss(model, ds.x, ds.y, times),
                    label_ae_loss(model, ds.y, 0.2, np.random.default_rng(5)), 1.0, 1.0)
    separate = backward(apart, params)
    for p in params:
        assert np.allclose(shared[p.id], separate[p.id], rtol=1e-12, atol=1e-14)


def test_flow_component_independent_of_sigma():
    model = make_small_model(seed=6)
    ds = lf.toy_crossing()
    results = []
    for sigma in (0.0, 5.0):
        _, bd = total_loss(model, ds.x, ds.y, TimeSampler(0.1, seed=9), sigma,
                           np.random.default_rng(11))
        results.append(bd.flow_loss)
    assert results[0] == results[1]


def test_flow_loss_gradients_match_finite_differences():
    model = make_small_model(seed=3)
    ds = lf.toy_crossing()
    times = np.random.default_rng(7).random(ds.n)
    worst = 0.0
    for _, p in model.named_parameters():
        worst = max(worst, grad_check(lambda _: flow_loss(model, ds.x, ds.y, times), p))
    assert worst < 1e-4


def test_one_step_on_total_decreases_total():
    from latentflow.nn import AdamState, adam_step

    model = make_small_model(seed=8)
    ds = lf.toy_crossing()
    times = np.random.default_rng(1).random(ds.n)
    noise = 0.1 * np.random.default_rng(2).standard_normal((ds.n, 6))

    def frozen_total():
        return combine(flow_loss(model, ds.x, ds.y, times), label_ae_loss(
            model, ds.y, 0.1, np.random.default_rng(0), noise=noise
        ), 1.0, 1.0)

    params = model.parameters()
    state = AdamState.for_params(params)
    before = frozen_total().item()
    grads = backward(frozen_total(), params)
    adam_step(params, grads, state, lr=1e-4)
    assert frozen_total().item() < before


def test_time_scaling_trap_fits_flow_but_not_the_task():
    """With p_zero = 0 and a collapsed data encoder, h(z,t) = z/t drives the
    flow loss to ~0 on (0, 1] while predictions stay constant and wrong."""
    ds = lf.toy_crossing()
    trap = ZeroEncoderTrap()
    times = TimeSampler(p_zero=0.0, seed=13).sample(4096)
    xs = np.tile(ds.x, (1024, 1))
    ys = np.tile(ds.y, (1024, 1))
    assert flow_loss(trap, xs, ys, times).item() < 1e-6

    res = solve(trap.field, trap.encode_data(ds.x).data, 0.0, 1.0, SolverSpec.euler(10))
    pred = trap.decode_label(res.z_final).data
    assert mse(pred, ds.y) > 0.1


def test_trap_does_not_occur_with_explicit_zero_sampling(toy_latent, toy_ds):
    model, _ = toy_latent  # trained with p_zero = 0.1 and trainable encoders
    pred, _ = model.predict_raw(toy_ds.x, SolverSpec.euler(1))
    assert mse(pred, toy_ds.y) < 1e-2


def test_label_encoder_injectivity_proxy(toy_latent, toy_ds):
    model, _ = toy_latent
    with lf.no_grad():
        emb = model.encode_label(toy_ds.y).data
    norms = np.linalg.norm(emb, axis=1)
    floor = 1e-3 * np.median(norms)
    for i in range(len(emb)):
        for j in range(i + 1, len(emb)):
            assert np.linalg.norm(emb[i] - emb[j]) > floor


def test_loss_breakdown_invariant():
    bd = LossBreakdown(0.25, 0.5, 0.75)
    assert bd.total == bd.flow_loss + bd.label_ae_loss
