import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentflow as lf
from latentflow.data import PairedDataset, TaskKind
from latentflow.model import (
    TrainingAbort,
    accuracy,
    build_direct_fm,
    build_node_baseline,
    direct_fm_train,
    evaluate_metric,
    load_model_params,
    mse,
    node_baseline_train,
    output_metric,
    write_run_files,
)
from latentflow.nn import save_checkpoint
from latentflow.schedules import SCHEDULES, interpolate
from latentflow.solvers import SolverSpec, _row_blocks
from latentflow.tensor import no_grad

from conftest import TOY_LATENT_CFG, make_small_model

EULER1 = SolverSpec.euler(1)
DOPRI = SolverSpec.dopri5(1e-3, 1e-3)


def _zeroed_dynamics_model():
    model = make_small_model(seed=2)
    for p in model.dynamics.parameters():
        p.data = np.zeros_like(p.data)
    return model


def test_predict_with_zero_dynamics_decodes_unmoved_embedding():
    model = _zeroed_dynamics_model()
    ds = lf.toy_crossing()
    pred, res = model.predict_raw(ds.x, EULER1)
    with no_grad():
        manual = model.decode_label(model.encode_data(ds.x).data).data
    assert np.array_equal(pred, manual)
    assert res.nfe == 1


def test_zero_iterations_leaves_model_unchanged():
    model = make_small_model(seed=4)
    before = [p.data.copy() for p in model.parameters()]
    log = lf.train(model, lf.toy_crossing(), lf.RunConfig(iterations=0))
    assert log.entries == []
    for p, b in zip(model.parameters(), before):
        assert np.array_equal(p.data, b)


def test_trained_toy_model_fits_with_one_euler_step(toy_latent, toy_ds):
    model, _ = toy_latent
    pred, res = model.predict_raw(toy_ds.x, EULER1)
    assert res.nfe == 1
    assert mse(pred, toy_ds.y) < 1e-2


def test_flow_loss_decreases_over_training(toy_latent):
    _, log = toy_latent
    flows = [e["flow_loss"] for e in log.entries]
    assert np.median(flows[-100:]) < np.median(flows[:100])


def test_one_step_and_adaptive_predictions_agree_after_training(toy_latent, toy_ds):
    model, _ = toy_latent
    fast, _ = model.predict_raw(toy_ds.x, EULER1)
    ref, _ = model.predict_raw(toy_ds.x, DOPRI)
    gaps = np.linalg.norm(fast - ref, axis=1) / np.maximum(np.linalg.norm(ref, axis=1), 1e-12)
    assert np.max(gaps) < 1e-2


def test_no_interpolant_collisions_after_training(toy_latent, toy_ds):
    model, _ = toy_latent
    with no_grad():
        z0 = model.encode_data(toy_ds.x).data
        z1 = model.encode_label(toy_ds.y).data
    grid = np.linspace(0.0, 1.0, 101)
    min_gap = np.inf
    for t in grid:
        z_t = interpolate(model.schedule, z0, z1, float(t))
        for i in range(toy_ds.n):
            for j in range(i + 1, toy_ds.n):
                min_gap = min(min_gap, float(np.linalg.norm(z_t[i] - z_t[j])))
    assert min_gap > 1e-3


def test_coupling_preserved_in_embedding_space(toy_latent, toy_ds):
    model, _ = toy_latent
    with no_grad():
        anchors = model.encode_label(toy_ds.y).data
        z0 = model.encode_data(toy_ds.x).data
        res = lf.solve(lambda z, t: model.velocity(z, t).data, z0, 0.0, 1.0, DOPRI)
        z1hat = res.z_final.data
    for i in range(toy_ds.n):
        dists = np.linalg.norm(anchors - z1hat[i], axis=1)
        assert int(np.argmin(dists)) == i


def test_training_is_deterministic():
    def run():
        model = make_small_model(seed=1)
        lf.train(model, lf.toy_crossing(), lf.RunConfig(
            iterations=300, batch_size=4, lr=1e-3, seed=5, log_every=50))
        return [p.data.copy() for p in model.parameters()]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_train_rejects_mismatched_dims():
    model = make_small_model()
    bad = lf.synth_regression(8, 3, seed=0)
    with pytest.raises(ValueError, match="dims"):
        lf.train(model, bad, lf.RunConfig(iterations=1))


def test_train_aborts_on_nonfinite_loss():
    model = make_small_model(seed=1)
    model.dynamics.parameters()[0].data += np.inf
    with pytest.raises(TrainingAbort, match="step 0"):
        lf.train(model, lf.toy_crossing(), lf.RunConfig(iterations=5))


def test_node_single_step_solves_linearly_separable_classification():
    rng = np.random.default_rng(0)
    n = 16
    x = np.vstack([
        rng.normal(size=(n // 2, 2)) * 0.3 + [-2.0, 0.0],
        rng.normal(size=(n // 2, 2)) * 0.3 + [2.0, 0.0],
    ])
    y = np.vstack([np.tile([1.0, 0.0], (n // 2, 1)), np.tile([0.0, 1.0], (n // 2, 1))])
    ds = PairedDataset(x, y, TaskKind.classification(2))

    node = build_node_baseline(2, 2, ds.task, hidden=32, depth=2, seed=0)
    log = node_baseline_train(node, ds, lf.RunConfig(
        iterations=500, batch_size=16, lr=1e-2, seed=0, log_every=100, node_steps=1))
    out, _ = node.predict_raw(ds.x, EULER1)
    assert accuracy(np.argmax(out, axis=1), ds.y) == 1.0
    assert all(e["train_nfe"] == 1 for e in log.entries)


def test_node_training_nfe_matches_step_count():
    ds = lf.toy_crossing()
    node = build_node_baseline(2, 2, ds.task, hidden=8, depth=2, seed=0)
    log = node_baseline_train(node, ds, lf.RunConfig(
        iterations=6, batch_size=4, lr=1e-3, seed=0, node_steps=5))
    assert log.final_train_nfe_per_step == 5
    assert all(e["train_nfe"] == 5 for e in log.entries)


def test_direct_fm_fits_non_crossing_control():
    ctrl = lf.toy_crossing(crossing=False)
    model = build_direct_fm(2, 2, ctrl.task, hidden=64, depth=3, seed=0)
    direct_fm_train(model, ctrl, lf.RunConfig(
        iterations=3000, batch_size=4, lr=1e-3, seed=0, log_every=100))
    pred, _ = model.predict_raw(ctrl.x, DOPRI)
    assert mse(pred, ctrl.y) < 1e-2


def test_direct_fm_fails_on_crossing_task(toy_direct, toy_ds):
    model, _ = toy_direct
    pred, _ = model.predict_raw(toy_ds.x, DOPRI)
    assert mse(pred, toy_ds.y) > 0.1


def test_direct_fm_zero_pads_mismatched_dims():
    ds = lf.synth_regression(16, 3, seed=1)  # d_x=3, d_y=1
    model = build_direct_fm(3, 1, ds.task, hidden=8, depth=2, seed=0)
    log = direct_fm_train(model, ds, lf.RunConfig(iterations=3, batch_size=16, lr=1e-3, seed=0))
    pred, _ = model.predict_raw(ds.x, EULER1)
    assert pred.shape == (16, 1)
    assert len(log.entries) == 3


def test_early_stopping_restores_best_checkpoint():
    ds = lf.synth_regression(80, 2, seed=2)
    train_ds, val_ds = lf.split(ds, 0.6, seed=0)
    spec = lf.ModelSpec(d_x=2, d_y=1, task=ds.task, enc_hidden=16, dyn_hidden=16,
                        dyn_depth=2)
    model = lf.build_model(spec, seed=0)
    cfg = lf.RunConfig(iterations=400, batch_size=32, lr=5e-3, seed=0,
                       eval_interval=50, patience=1, log_every=50)
    log = lf.train(model, train_ds, cfg, val_ds)
    restored_metric, _ = evaluate_metric(model, val_ds, SolverSpec.parse(cfg.solver))
    assert log.best_val is not None
    assert restored_metric == pytest.approx(log.best_val, rel=1e-9)


def test_node_early_stopping_restores_best_checkpoint():
    # the NODE trainer takes no validation set; the same data and config
    # exercise patience through train
    ds = lf.synth_regression(60, 2, seed=2)
    train_ds, val_ds = lf.split(ds, 0.6, seed=0)
    spec = lf.ModelSpec(d_x=2, d_y=1, task=ds.task, enc_hidden=8, dyn_hidden=8, dyn_depth=2)
    model = lf.build_model(spec, seed=0)
    cfg = lf.RunConfig(iterations=200, batch_size=16, lr=3e-2, seed=0,
                       eval_interval=2, patience=1)
    log = lf.train(model, train_ds, cfg, val_ds)
    # validation solves with cfg.solver; training stops at step 21
    restored_metric, _ = evaluate_metric(model, val_ds, SolverSpec.parse(cfg.solver))
    assert log.stopped_early and log.entries[-1]["step"] < cfg.iterations - 1
    assert restored_metric == log.best_val


def test_classification_best_val_is_the_observed_accuracy(monkeypatch):
    # an accuracy below 0.5 came back as 1 - (1 - 0.1) = 0.09999999999999998
    monkeypatch.setattr("latentflow.model.evaluate_metric", lambda *args: (0.1, 1))
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ds = PairedDataset(x, np.eye(2)[[0, 1, 1, 0]], TaskKind.classification(2))
    spec = lf.ModelSpec(d_x=2, d_y=2, task=ds.task, enc_hidden=8, dyn_hidden=8, dyn_depth=2)
    cfg = lf.RunConfig(iterations=2, batch_size=4, seed=0, eval_interval=1)
    log = lf.train(lf.build_model(spec, seed=0), ds, cfg, ds)
    assert log.best_val == 0.1


def test_constant_lr_schedule_logs_the_base_rate_at_every_step():
    cfg = lf.RunConfig(iterations=5, batch_size=4, lr=3e-3, lr_schedule="constant")
    log = lf.train(make_small_model(), lf.toy_crossing(), cfg)
    assert [e["lr"] for e in log.entries] == [cfg.lr] * 5


@pytest.mark.parametrize("trainer", ["direct_fm", "node"])
def test_baselines_reject_mismatched_dims(trainer):
    bad = lf.synth_regression(8, 3, seed=0)  # d_x=3, d_y=1
    cfg = lf.RunConfig(iterations=1)
    with pytest.raises(ValueError, match="do not match model spec"):
        if trainer == "direct_fm":
            direct_fm_train(build_direct_fm(2, 2, bad.task, hidden=4, depth=2), bad, cfg)
        else:
            node_baseline_train(build_node_baseline(2, 2, bad.task, hidden=4, depth=2), bad, cfg)


def _assert_same_parameters(model, clone):
    pairs = zip(model.named_parameters(), clone.named_parameters(), strict=True)
    for (name_a, a), (name_b, b) in pairs:
        assert name_a == name_b and np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


@pytest.mark.parametrize("method", ["latent_fm", "direct_fm", "node"])
def test_model_checkpoint_round_trip(tmp_path, request, toy_ds, method):
    # a baseline's spec used to build a latent model, so its checkpoint did
    # not load: missing parameter 'f.enc.0.weight'
    if method == "node":
        model = build_node_baseline(2, 2, toy_ds.task, hidden=8, depth=2, seed=3)
    else:
        model, _ = request.getfixturevalue("toy_latent" if method == "latent_fm" else "toy_direct")
    assert model.spec.method == method
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, model.named_parameters())
    clone = load_model_params(path, model.spec)
    _assert_same_parameters(model, clone)
    pa, _ = model.predict_raw(toy_ds.x, EULER1)
    pb, _ = clone.predict_raw(toy_ds.x, EULER1)
    assert np.array_equal(pa, pb)


_SIZE = st.integers(1, 5)


@settings(max_examples=60, deadline=None)
@given(spec=st.builds(
    lf.ModelSpec, d_x=_SIZE, d_y=_SIZE,
    task=st.one_of(st.just(TaskKind.regression()), _SIZE.map(TaskKind.classification)),
    schedule=st.sampled_from(sorted(SCHEDULES)), latent_dim=st.none() | _SIZE,
    enc_hidden=_SIZE, enc_depth=st.integers(1, 3), dyn_hidden=_SIZE, dyn_depth=st.integers(1, 3),
    method=st.sampled_from(["latent_fm", "direct_fm", "node"])),
    seed=st.integers(0, 2**32 - 1))
def test_any_spec_survives_its_manifest_and_its_model_a_checkpoint(spec, seed):
    assert lf.ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    model = lf.build_model(spec, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_checkpoint(path, model.named_parameters())
        clone = load_model_params(path, spec)
    _assert_same_parameters(model, clone)


def test_latent_width_mismatch_rejected():
    spec = lf.ModelSpec(d_x=2, d_y=2, task=TaskKind.regression(), latent_dim=6)
    good = lf.build_model(spec, seed=0)
    with pytest.raises(ValueError, match="latent width"):
        lf.LatentFlowModel(spec, good.data_encoder, good.label_encoder,
                           good.label_decoder,
                           lf.Mlp([5, 5], time_conditioned=True,
                                  rng=np.random.default_rng(0)))


def test_default_latent_dim_exceeds_observation_dims():
    spec = lf.ModelSpec(d_x=3, d_y=5, task=TaskKind.regression())
    assert spec.resolved_latent_dim() == 12
    assert spec.resolved_latent_dim() > max(spec.d_x, spec.d_y)


def test_classification_predict_argmax_breaks_ties_low():
    spec = lf.ModelSpec(d_x=2, d_y=2, task=TaskKind.classification(2),
                        enc_hidden=8, dyn_hidden=8, dyn_depth=2)
    model = lf.build_model(spec, seed=0)
    # zero decoder output: all class scores tie, argmax picks index 0
    for p in model.label_decoder.parameters():
        p.data = np.zeros_like(p.data)
    ds = PairedDataset(lf.toy_crossing().x, np.eye(2)[[0, 0, 0, 1]], model.task)
    assert evaluate_metric(model, ds, EULER1) == (0.75, 1)
    assert output_metric(model.task, ds, np.zeros((4, 2))) == 0.75


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_failed_writer_leaves_every_existing_file_and_no_temporary(data):
    # writer k of m has written part of its file when it raises
    m = data.draw(st.integers(1, 4), label="m")
    k = data.draw(st.integers(0, m - 1), label="k")
    names = [f"file{i}.json" for i in range(m)]
    existing = data.draw(st.dictionaries(st.sampled_from(names + ["other.txt"]),
                                         st.binary(max_size=32)), label="existing")

    def writer(i):
        def write(path):
            path.write_bytes(b"new")
            if i == k:
                raise RuntimeError("writer failed")
        return write

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name, content in existing.items():
            (out / name).write_bytes(content)
        with pytest.raises(RuntimeError, match="writer failed"):
            write_run_files(out, {name: writer(i) for i, name in enumerate(names)})
        assert {p.name: p.read_bytes() for p in out.iterdir()} == existing


def _synth_sized_model(latent_dim=None):
    # the trained sizes of a synth run: f is 16 -> 64 relu -> 34, d is 34 -> 1
    return lf.build_model(lf.ModelSpec(16, 1, TaskKind.regression(), latent_dim=latent_dim),
                          seed=7)


@settings(max_examples=16, deadline=None)
@given(n=st.one_of(st.integers(960, 1088), st.integers(1984, 2112), st.just(1)),
       latent_dim=st.sampled_from([None, 2]))
def test_blocked_encode_and_decode_equal_one_block(n, latent_dim):
    # embed runs f over solve's row blocks of 512 to 1,024 rows, whatever
    # f's widths. Equal bits with one whole-array call pin a BLAS property as
    # well as the model's: on OpenBLAS 0.3.31 a row of a matrix product with
    # at least three output columns has the same bits for every row count of
    # at least 256. A BLAS whose kernels depend on the row count fails this
    # test with a correct model. Narrower products are such a dependence: with
    # a latent width of 2, f's 64 -> 2 layer changes bits at n = 1074 in two
    # blocks, so that f is compared with its blocks only, and flow decodes
    # d's one output column over all rows at once.
    model = _synth_sized_model(latent_dim)
    x = np.random.default_rng(n).standard_normal((n, 16))
    z0 = model.embed(x)
    with no_grad():
        blocks = [model.encode_data(x[rows]).data for rows in _row_blocks(n)]
        whole = model.encode_data(x).data
    assert np.array_equal(z0.view(np.uint64), np.concatenate(blocks).view(np.uint64))
    if latent_dim is None:
        assert np.array_equal(z0.view(np.uint64), whole.view(np.uint64))
    out, res = model.flow(z0, EULER1)
    with no_grad():
        decoded = model.decode_label(res.z_final.data).data
    assert np.array_equal(out.view(np.uint64), decoded.view(np.uint64))


def test_embed_peak_memory():
    # blocks keep f's hidden activations to one block's rows: the parent's
    # whole-array embed peaked at 4.0x its output's bytes
    model = _synth_sized_model()
    x = np.random.default_rng(5).standard_normal((20_000, 16))
    out_bytes = 20_000 * 34 * 8
    tracemalloc.start()
    try:
        model.embed(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out_bytes
