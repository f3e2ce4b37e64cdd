"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Trained artifacts are memoized at module level, so the first criterion that
needs a model pays its training cost inside its own runtime budget; later
criteria reuse it. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

import latentflow as lf
from latentflow.cli import main
from latentflow.data import split, toy_crossing
from latentflow.diagnostics import build_report
from latentflow.model import evaluate_metric, mse
from latentflow.objectives import TimeSampler, flow_loss, label_ae_loss
from latentflow.schedules import SCHEDULES, get_schedule, interpolate
from latentflow.solvers import SolverSpec, solve
from latentflow.tensor import Tensor, combine, grad_check, no_grad

EULER1 = SolverSpec.euler(1)
DOPRI = SolverSpec.dopri5(1e-3, 1e-3)

_cache: dict = {}


def _check(criterion: str, ok: bool, detail: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"


def toy_latent():
    if "latent" not in _cache:
        ds = toy_crossing()
        spec = lf.ModelSpec(d_x=2, d_y=2, task=ds.task, enc_hidden=32, enc_depth=2,
                            dyn_hidden=64, dyn_depth=3)
        model = lf.build_model(spec, seed=0)
        cfg = lf.RunConfig(iterations=5000, batch_size=4, lr=1e-3, t_zero_prob=0.1,
                           label_noise_std=0.1, seed=0, log_every=1)
        calls_before = model.dynamics.calls
        lf.train(model, ds, cfg)
        _cache["latent"] = (model, (model.dynamics.calls - calls_before) / cfg.iterations)
    return _cache["latent"]


def toy_direct():
    if "direct" not in _cache:
        ds = toy_crossing()
        model = lf.build_direct_fm(2, 2, ds.task, hidden=64, depth=3, seed=0)
        cfg = lf.RunConfig(iterations=5000, batch_size=4, lr=1e-3, t_zero_prob=0.1,
                           seed=0, log_every=100)
        lf.direct_fm_train(model, ds, cfg)
        _cache["direct"] = model
    return _cache["direct"]


def toy_node():
    if "node" not in _cache:
        ds = toy_crossing()
        node = lf.build_node_baseline(2, 2, ds.task, hidden=64, depth=3, seed=0)
        cfg = lf.RunConfig(iterations=3000, batch_size=4, lr=3e-3, seed=0, log_every=100)
        log = lf.node_baseline_train(node, ds, 8, cfg)
        _cache["node"] = (node, log)
    return _cache["node"]


def synth_models():
    if "synth" not in _cache:
        ds = lf.synth_regression(256, 2, seed=11)
        train_ds, val_ds = split(ds, 0.6, seed=0)
        out = {}
        for kind in ("linear", "convex", "concave"):
            spec = lf.ModelSpec(d_x=2, d_y=1, task=ds.task, schedule=kind,
                                enc_hidden=64, enc_depth=2, dyn_hidden=64, dyn_depth=3)
            model = lf.build_model(spec, seed=0)
            cfg = lf.RunConfig(iterations=10000, batch_size=128, lr=2e-3, t_zero_prob=0.1,
                               label_noise_std=0.1, seed=0, eval_interval=1000,
                               patience=10, log_every=500)
            lf.train(model, train_ds, cfg, val_ds)
            out[kind] = model
        _cache["synth"] = (out, val_ds)
    return _cache["synth"]


class _TimeScalingTrap:
    """Collapsed data encoder plus h(z, t) = z / t under the linear schedule."""

    def __init__(self):
        self.schedule = get_schedule("linear")

    def encode_data(self, x):
        return Tensor(np.zeros_like(np.asarray(x, dtype=np.float64)))

    def encode_label(self, y):
        return Tensor(y)

    def velocity(self, z, t):
        arr = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
        ts = np.asarray(t, dtype=np.float64)
        if ts.ndim == 0:
            ts = np.full(arr.shape[0], float(ts))
        safe = np.where(ts > 0, ts, 1.0)
        return Tensor(np.where(ts[:, None] > 0, arr / safe[:, None], 0.0))


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    ds = toy_crossing()
    spec = lf.ModelSpec(d_x=2, d_y=2, task=ds.task, enc_hidden=8, enc_depth=2,
                        dyn_hidden=8, dyn_depth=2)
    model = lf.build_model(spec, seed=3)
    rng = np.random.default_rng(7)
    times = rng.random(ds.n)
    noise = 0.3 * rng.standard_normal((ds.n, spec.resolved_latent_dim()))
    frozen_rng = np.random.default_rng(0)

    losses = {
        "flow": lambda: flow_loss(model, ds.x, ds.y, times),
        "label_ae_noisy": lambda: label_ae_loss(model, ds.y, 0.3, frozen_rng, noise=noise),
        "total": lambda: combine(flow_loss(model, ds.x, ds.y, times),
                                 label_ae_loss(model, ds.y, 0.3, frozen_rng, noise=noise),
                                 1.0, 1.0),
    }
    groups = {"f": model.data_encoder, "g": model.label_encoder,
              "d": model.label_decoder, "h": model.dynamics}
    worst = {}
    for loss_name, loss_fn in losses.items():
        for group_name, net in groups.items():
            err = max(grad_check(lambda _: loss_fn(), p) for p in net.parameters())
            worst[f"{loss_name}/{group_name}"] = err
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    _check("criterion 1 (gradient correctness)", not bad,
           f"max rel err {max(worst.values()):.2e} over {len(worst)} loss/group pairs",
           started, 30.0)


def test_criterion_2_interpolant_velocity_consistency():
    started = time.perf_counter()
    z0 = np.array([[1.0, -0.5], [0.25, 2.0]])
    z1 = np.array([[-1.0, 0.5], [1.5, -2.0]])
    h = 1e-5
    grid = np.linspace(0.0, 1.0, 101)
    worst_fd = 0.0
    endpoints_ok = True
    for kind, s in SCHEDULES.items():
        for t in grid:
            # raw coefficients extend smoothly past [0, 1]
            plus = float(s.alpha(t + h)) * z0 + float(s.beta(t + h)) * z1
            minus = float(s.alpha(t - h)) * z0 + float(s.beta(t - h)) * z1
            fd = (plus - minus) / (2 * h)
            v = (float(s.dalpha(t)) * z0 + float(s.dbeta(t)) * z1)
            worst_fd = max(worst_fd, float(np.max(np.abs(fd - v))))
        endpoints_ok &= np.array_equal(interpolate(s, z0, z1, 0.0), z0)
        endpoints_ok &= np.array_equal(interpolate(s, z0, z1, 1.0), z1)
    _check("criterion 2 (interpolant/velocity consistency)",
           worst_fd < 1e-6 and endpoints_ok,
           f"FD gap {worst_fd:.2e}, endpoints exact: {endpoints_ok}", started, 1.0)


def test_criterion_3_solver_validity():
    started = time.perf_counter()
    exact = 0.36787944117144233

    def err_of(spec):
        res = solve(lambda z, t: -z, np.array([1.0]), 0.0, 1.0, spec)
        return abs(res.z_final.data[0] - exact), res

    tol_ok = all(err_of(SolverSpec.dopri5(r, r))[0] <= 100 * r
                 for r in (1e-3, 1e-5, 1e-7))
    euler_ratio = err_of(SolverSpec.euler(64))[0] / err_of(SolverSpec.euler(128))[0]
    rk4_ratio = err_of(SolverSpec.rk4(8))[0] / err_of(SolverSpec.rk4(16))[0]
    order_ok = 1.6 < euler_ratio < 2.4 and 12.8 < rk4_ratio < 19.2

    nfe_ok = True
    for n in (1, 3, 17):
        nfe_ok &= solve(lambda z, t: -z, np.ones(2), 0.0, 1.0, SolverSpec.euler(n)).nfe == n
        nfe_ok &= solve(lambda z, t: -z, np.ones(2), 0.0, 1.0, SolverSpec.rk4(n)).nfe == 4 * n
    for field in (lambda z, t: -z, lambda z, t: -80.0 * z):
        res = solve(field, np.ones(2), 0.0, 1.0, SolverSpec.dopri5(1e-9, 1e-9))
        nfe_ok &= res.nfe == 1 + 6 * (res.accepted_steps + res.rejected_steps)

    _check("criterion 3 (solver validity)", tol_ok and order_ok and nfe_ok,
           f"euler ratio {euler_ratio:.2f}, rk4 ratio {rk4_ratio:.2f}, "
           f"tolerance and NFE identities {'ok' if tol_ok and nfe_ok else 'violated'}",
           started, 10.0)


def test_criterion_4_crossing_task_reproduction():
    started = time.perf_counter()
    ds = toy_crossing()

    latent, nfe_per_step = toy_latent()
    latent_pred, _ = latent.predict_raw(ds.x, EULER1)
    latent_mse = mse(latent_pred, ds.y)

    direct = toy_direct()
    direct_pred, _ = direct.predict_raw(ds.x, DOPRI)
    direct_mse = mse(direct_pred, ds.y)

    node, node_log = toy_node()
    node_pred, _ = node.predict_raw(ds.x, SolverSpec.euler(8))
    node_mse = mse(node_pred, ds.y)
    node_nfe = node_log.final_train_nfe_per_step

    ok = (nfe_per_step == 1.0 and latent_mse < 1e-2
          and direct_mse > 0.1
          and node_mse < 1e-2 and node_nfe >= 8)
    _check("criterion 4 (crossing-task reproduction)", ok,
           f"latent mse={latent_mse:.1e} @ {nfe_per_step:.0f} NFE/step, "
           f"direct mse={direct_mse:.2f}, node mse={node_mse:.1e} @ {node_nfe:.0f} NFE/step",
           started, 300.0)


def test_criterion_5_solver_disagreement_ordering():
    started = time.perf_counter()
    ds = toy_crossing()
    latent, _ = toy_latent()
    direct = toy_direct()
    d_latent = build_report(latent, ds)["disagreement_fraction"]
    d_direct = build_report(direct, ds)["disagreement_fraction"]
    _check("criterion 5 (disagreement ordering)",
           d_latent < 0.01 and d_direct > 0.10,
           f"latent {d_latent:.4f} < 1%, direct {d_direct:.2f} > 10%", started, 300.0)


def test_criterion_6_metric_over_nfe_trends():
    started = time.perf_counter()
    models, val_ds = synth_models()
    nfes = [1, 2, 4, 8, 16, 32, 64, 100]
    errs = {
        kind: [evaluate_metric(m, val_ds, SolverSpec.euler(n))[0] for n in nfes]
        for kind, m in models.items()
    }
    linear_gap = abs(errs["linear"][0] - errs["linear"][-1]) / errs["linear"][-1]
    band_ok = all(
        errs[kind][i + 1] <= errs[kind][i] * 1.02
        for kind in ("convex", "concave")
        for i in range(len(nfes) - 1)
    )
    _check("criterion 6 (metric-over-NFE trends)",
           linear_gap < 0.05 and band_ok,
           f"linear 1-vs-100 gap {linear_gap:.2%}; curved schedules "
           f"non-increasing within 2%: {band_ok}", started, 600.0)


def test_criterion_7_time_scaling_trap():
    started = time.perf_counter()
    ds = toy_crossing()
    trap = _TimeScalingTrap()
    times = TimeSampler(p_zero=0.0, seed=13).sample(4096)
    xs = np.tile(ds.x, (1024, 1))
    ys = np.tile(ds.y, (1024, 1))
    trap_flow = flow_loss(trap, xs, ys, times).item()
    res = solve(lambda z, t: trap.velocity(Tensor(z), t).data,
                trap.encode_data(ds.x).data, 0.0, 1.0, SolverSpec.euler(10))
    trap_mse = mse(res.z_final.data, ds.y)

    latent, _ = toy_latent()  # trained with p_zero = 0.1
    healthy_pred, _ = latent.predict_raw(ds.x, EULER1)
    healthy_mse = mse(healthy_pred, ds.y)

    ok = trap_flow < 1e-6 and trap_mse > 0.1 and healthy_mse < 1e-2
    _check("criterion 7 (time-scaling trap)", ok,
           f"trap flow={trap_flow:.1e} with mse={trap_mse:.2f}; "
           f"p_zero=0.1 run mse={healthy_mse:.1e}", started, 300.0)


def test_criterion_8_velocity_cosine_profiles():
    started = time.perf_counter()
    ds = toy_crossing()
    latent, _ = toy_latent()
    direct = toy_direct()
    # build_report's profile grid is np.linspace(0.0, 1.0, 21)
    latent_min = min(row["mean_cosine"] for row in build_report(latent, ds)["cosine_profile"])
    direct_min = min(row["mean_cosine"] for row in build_report(direct, ds)["cosine_profile"])
    _check("criterion 8 (velocity cosine profiles)",
           latent_min > 0.99 and direct_min < 0.9,
           f"latent min {latent_min:.4f} > 0.99, direct min {direct_min:.3f} < 0.9",
           started, 120.0)


def test_criterion_9_noncrossing_and_injectivity():
    started = time.perf_counter()
    ds = toy_crossing()
    latent, _ = toy_latent()
    with no_grad():
        z0 = latent.encode_data(ds.x).data
        z1 = latent.encode_label(ds.y).data
    min_gap = np.inf
    for t in np.linspace(0.0, 1.0, 101):
        z_t = interpolate(latent.schedule, z0, z1, float(t))
        for i in range(ds.n):
            for j in range(i + 1, ds.n):
                min_gap = min(min_gap, float(np.linalg.norm(z_t[i] - z_t[j])))
    floor = 1e-3 * float(np.median(np.linalg.norm(z1, axis=1)))
    label_gaps = [
        float(np.linalg.norm(z1[i] - z1[j]))
        for i in range(ds.n) for j in range(i + 1, ds.n)
    ]
    ok = min_gap > 1e-3 and min(label_gaps) > floor
    _check("criterion 9 (non-crossing + injectivity proxy)", ok,
           f"min interpolant gap {min_gap:.4f} > 1e-3, "
           f"min label-embedding gap {min(label_gaps):.3f} > {floor:.2e}",
           started, 60.0)


def test_criterion_10_bit_identical_reruns(tmp_path):
    started = time.perf_counter()
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text(
        "dataset = toy\niterations = 400\nbatch_size = 4\nlr = 1e-3\n"
        "enc_hidden = 16\ndyn_hidden = 16\ndyn_depth = 2\nseed = 3\nlog_every = 1\n"
    )
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)

    ckpt_equal = (outs[0] / "checkpoint.json").read_bytes() == (outs[1] / "checkpoint.json").read_bytes()
    log_equal = (outs[0] / "train_log.jsonl").read_bytes() == (outs[1] / "train_log.jsonl").read_bytes()
    manifests = [json.loads((o / "manifest.json").read_text()) for o in outs]
    for m in manifests:
        m.pop("timing")  # timestamps live in their own field
    _check("criterion 10 (determinism)",
           ckpt_equal and log_equal and manifests[0] == manifests[1],
           f"checkpoint bytes equal: {ckpt_equal}, log bytes equal: {log_equal}, "
           f"manifests (minus timing) equal: {manifests[0] == manifests[1]}",
           started, 120.0)
