import contextlib
import csv
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentflow as lf
from latentflow.data import PairedDataset, TaskKind
import latentflow.diagnostics as diagnostics
from latentflow.diagnostics import (
    build_report,
    disagreement,
    knn_probe,
    nfe_sweep,
    velocity_cosine_profile,
    write_report,
)
from latentflow.schedules import get_schedule
from latentflow.solvers import SolverSpec
from latentflow.tensor import Tensor

from conftest import make_small_model


class VelocityStub:
    """Identity encoders with a chosen velocity field (linear schedule)."""

    def __init__(self, mode: str):
        self.schedule = get_schedule("linear")
        self.mode = mode
        self.task = TaskKind.regression()

    def encode_data(self, x):
        return Tensor(x)

    def encode_label(self, y):
        return Tensor(y)

    def decode_label(self, z):
        return z if isinstance(z, Tensor) else Tensor(z)

    def velocity(self, z, t):
        arr = z.data if isinstance(z, Tensor) else np.asarray(z)
        if self.mode == "zero":
            return Tensor(np.zeros_like(arr))
        raise NotImplementedError

    # the model's own inference path, run on the stub's networks
    embed = lf.LatentFlowModel.embed
    flow = lf.LatentFlowModel.flow


class ExactFieldStub(VelocityStub):
    """Velocity fixed to (a multiple of) the exact target z1 - z0."""

    def __init__(self, ds, factor: float):
        super().__init__("exact")
        self._target = ds.y - ds.x
        self._factor = factor

    def velocity(self, z, t):
        return Tensor(self._factor * self._target)


def _stub_disagreement(stub, ds):
    z0 = stub.embed(ds.x)
    return disagreement(stub.task, stub.flow(z0, diagnostics._FAST)[0],
                        stub.flow(z0, diagnostics._REFERENCE)[0])


def _stub_profile(stub, ds, grid):
    return velocity_cosine_profile(stub, stub.embed(ds.x), stub.encode_label(ds.y).data, grid)


def test_disagreement_zero_for_constant_field():
    ds = lf.toy_crossing()
    model = ExactFieldStub(ds, 1.0)
    assert _stub_disagreement(model, ds) == 0.0


def test_disagreement_counts_regression_gaps():
    ds = lf.toy_crossing()

    class DriftStub(VelocityStub):
        def velocity(self, z, t):
            arr = z.data if isinstance(z, Tensor) else np.asarray(z)
            # time-dependent field: a single Euler step misses the curvature
            return Tensor(np.full_like(arr, 4.0 * float(np.mean(t)) - 2.0))

    frac = _stub_disagreement(DriftStub("drift"), ds)
    assert frac == 1.0


def test_trained_latent_model_has_low_disagreement(toy_latent, toy_ds):
    model, _ = toy_latent
    assert build_report(model, toy_ds)["disagreement_fraction"] < 0.01


def test_direct_fm_on_crossing_has_high_disagreement(toy_direct, toy_ds):
    model, _ = toy_direct
    assert build_report(model, toy_ds)["disagreement_fraction"] > 0.10


def test_cosine_profile_exact_and_negated_fields():
    ds = lf.toy_crossing()
    grid = np.linspace(0.0, 1.0, 5)
    exact = _stub_profile(ExactFieldStub(ds, 1.0), ds, grid)
    negated = _stub_profile(ExactFieldStub(ds, -1.0), ds, grid)
    assert all(c == pytest.approx(1.0, abs=1e-12) for _, c in exact)
    assert all(c == pytest.approx(-1.0, abs=1e-12) for _, c in negated)


def test_cosine_profile_zero_vector_convention():
    ds = lf.toy_crossing()
    profile = _stub_profile(VelocityStub("zero"), ds, [0.0, 0.5, 1.0])
    assert all(c == 0.0 for _, c in profile)
    assert all(-1.0 <= c <= 1.0 and np.isfinite(c) for _, c in profile)


def test_trained_profiles_separate_latent_from_direct(toy_latent, toy_direct, toy_ds):
    latent_model, _ = toy_latent
    direct_model, _ = toy_direct
    latent_min = min(row["mean_cosine"]
                     for row in build_report(latent_model, toy_ds)["cosine_profile"])
    direct_min = min(row["mean_cosine"]
                     for row in build_report(direct_model, toy_ds)["cosine_profile"])
    assert latent_min > 0.99
    assert direct_min < 0.9


def test_knn_self_match():
    ref = np.array([[0.0, 0.0], [5.0, 5.0]])
    labels = np.array([3, 8])
    acc = knn_probe(ref, labels, ref[1:2], labels[1:2])
    assert acc == 1.0


def test_knn_separated_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 2)) * 0.2 + [-5.0, 0.0]
    b = rng.normal(size=(40, 2)) * 0.2 + [5.0, 0.0]
    emb = np.vstack([a, b])
    labels = np.array([0] * 40 + [1] * 40)
    ref = np.arange(80) % 2 == 0
    acc = knn_probe(emb[ref], labels[ref], emb[~ref], labels[~ref])
    assert acc == 1.0


def _knn_predictions_unchunked(ref_emb, query_emb):
    """Reference: nearest-reference indices from the whole [q, r, d] distance
    matrix at once; the first of equally near references in a stable sort wins."""
    dist = np.linalg.norm(query_emb[:, None, :] - ref_emb[None, :, :], axis=2)
    return np.argsort(dist, axis=1, kind="stable")[:, 0]


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(["grid", "near_duplicate", "offset"]),
    n_ref=st.integers(min_value=1, max_value=12),
    n_query=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=12),
    block_bytes=st.integers(min_value=1, max_value=4096) | st.just(diagnostics._KNN_BLOCK_BYTES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_knn_blocked_matches_unchunked_reference(case, n_ref, n_query, d, block_bytes, seed):
    # Coordinates on a coarse integer grid make equal distances common. As
    # 1e-15 steps around one point, every distance is far below the Gram
    # form's rounding error; around a common offset of about 1e6, the Gram
    # form cancels to a few significant digits. Labels are reference indices,
    # so a probe accuracy of 1 means every chosen index equals the reference's.
    rng = np.random.default_rng(seed)
    ref = rng.integers(-2, 3, size=(n_ref, d)).astype(float)
    qry = rng.integers(-2, 3, size=(n_query, d)).astype(float)
    if case == "near_duplicate":
        base = rng.standard_normal(d)
        ref, qry = base + 1e-15 * ref, base + 1e-15 * qry
    elif case == "offset":
        offset = 1e6 * (1.0 + rng.random(d))
        ref, qry = ref + offset, qry + offset
    expected = _knn_predictions_unchunked(ref, qry)
    ids = np.arange(n_ref)
    with mock.patch.object(diagnostics, "_KNN_BLOCK_BYTES", block_bytes):
        assert knn_probe(ref, ids, qry, expected) == 1.0
        if n_ref > 1:
            assert knn_probe(ref, ids, qry, (expected + 1) % n_ref) == 0.0


def test_knn_rejects_bad_inputs():
    ref = np.zeros((2, 2))
    labels = np.zeros(2, dtype=int)
    with pytest.raises(ValueError, match="query"):
        knn_probe(ref, labels, np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_post_flow_probe_at_least_as_good_as_raw(toy_latent, toy_ds):
    model, _ = toy_latent
    report = build_report(model, toy_ds)
    assert report["knn_accuracy_z1hat"] >= report["knn_accuracy_z0"]
    assert report["knn_accuracy_z1hat"] == 1.0


def test_classification_knn_probe_uses_class_labels(toy_ds):
    rng = np.random.default_rng(3)
    n = 24
    x = np.vstack([
        rng.normal(size=(n // 2, 2)) * 0.4 + [-1.5, 0.0],
        rng.normal(size=(n // 2, 2)) * 0.4 + [1.5, 0.0],
    ])
    y = np.vstack([np.tile([1.0, 0.0], (n // 2, 1)), np.tile([0.0, 1.0], (n // 2, 1))])
    ds = PairedDataset(x, y, TaskKind.classification(2))
    spec = lf.ModelSpec(d_x=2, d_y=2, task=ds.task, enc_hidden=16, dyn_hidden=32,
                        dyn_depth=2)
    model = lf.build_model(spec, seed=0)
    lf.train(model, ds, lf.RunConfig(iterations=1500, batch_size=24, lr=2e-3,
                                     seed=0, log_every=100))
    report = build_report(model, ds)
    assert report["knn_accuracy_z1hat"] >= report["knn_accuracy_z0"]
    assert report["knn_accuracy_z1hat"] >= 0.9


def test_nfe_sweep_rows(toy_latent, toy_ds):
    model, _ = toy_latent
    rows = nfe_sweep(model, toy_ds, model.embed(toy_ds.x), [1, 4], {})
    assert [r["nfe"] for r in rows[:2]] == [1, 4]
    adaptive = rows[-1]
    assert adaptive["solver"].startswith("dopri5")
    assert adaptive["nfe"] >= 7  # one accepted first-same-as-last step minimum
    assert all(np.isfinite(r["metric"]) for r in rows)


def test_build_report_shares_one_solve_per_solver(toy_latent, toy_ds):
    # Every dynamics call is one of: the sweep's Euler steps (whose euler:1 row
    # is also the disagreement's fast side), one dopri5 solve shared by the
    # sweep, the disagreement and the z1hat probe, and the cosine profile's grid.
    # f and g each run once, over the four toy rows: z0 and z1 serve the cosine
    # profile, the probes and every solve.
    model, _ = toy_latent
    nets = (model.dynamics, model.data_encoder, model.label_encoder)
    calls = [net.calls for net in nets]
    report = build_report(model, toy_ds)
    dopri5_nfe = report["nfe_sweep"][-1]["nfe"]
    assert [net.calls - c for net, c in zip(nets, calls)] == [
        sum(diagnostics._NFE_LIST) + dopri5_nfe + len(diagnostics._T_GRID), 1, 1]


def test_build_report_calls_each_public_diagnostic(toy_latent, toy_ds):
    # build_report is the composition of the public diagnostics, looked up by
    # their module names: one call each, and one 1-NN probe per space.
    model, _ = toy_latent
    names = ("disagreement", "velocity_cosine_profile", "nfe_sweep", "knn_probe")
    with contextlib.ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(
            diagnostics, name, wraps=getattr(diagnostics, name))) for name in names]
        build_report(model, toy_ds)
    assert [spy.call_count for spy in spies] == [1, 1, 1, 2]


def test_report_serialization(tmp_path, toy_latent, toy_ds):
    model, _ = toy_latent
    report = build_report(model, toy_ds)
    write_report(report, tmp_path)
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded == report
    for key in ("disagreement_fraction", "cosine_profile", "knn_accuracy_z0",
                "knn_accuracy_z1hat", "nfe_sweep"):
        assert key in loaded
    assert all(-1.0 <= row["mean_cosine"] <= 1.0 for row in loaded["cosine_profile"])

    with (tmp_path / "cosine_profile.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "mean_cosine"]
    assert len(rows) - 1 == len(report["cosine_profile"])
    with (tmp_path / "nfe_sweep.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["nfe", "metric"]
    assert len(rows) - 1 == len(report["nfe_sweep"])


def test_failed_report_write_leaves_previous_report_and_no_temporary_file(tmp_path, toy_latent,
                                                                          toy_ds):
    model, _ = toy_latent
    report = build_report(model, toy_ds)
    write_report(report, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before["nfe_sweep.csv"].startswith(b"nfe,metric\r\n")  # csv's own line ends
    # the sweep CSV is rendered last; a row without a metric fails it
    broken = {**report, "nfe_sweep": [{"nfe": 1}]}
    with pytest.raises(KeyError):
        write_report(broken, tmp_path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

