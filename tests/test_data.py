import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentflow.data import (
    DataError,
    PairedDataset,
    TaskKind,
    apply_normalization,
    denormalize_y,
    load_csv,
    split,
    standardize,
    synth_regression,
    toy_crossing,
)
from latentflow.nn import AdamState, Mlp, adam_step, cosine_lr
from latentflow.tensor import Tensor, backward, mean_all, sq_diff_rowsum


def _segments_cross(p0, p1, q0, q1) -> bool:
    """Strict interior intersection of two 2-D segments (oracle)."""
    d1 = p1 - p0
    d2 = q1 - q0
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        return False
    r = q0 - p0
    s = (r[0] * d2[1] - r[1] * d2[0]) / denom
    u = (r[0] * d1[1] - r[1] * d1[0]) / denom
    return 0.0 < s < 1.0 and 0.0 < u < 1.0


def test_toy_crossing_shape():
    ds = toy_crossing()
    assert ds.n == 4 and ds.d_x == 2 and ds.d_y == 2
    assert ds.task.kind == "regression"


def test_toy_crossing_all_chord_pairs_intersect():
    ds = toy_crossing()
    crossings = 0
    for i in range(4):
        for j in range(i + 1, 4):
            if _segments_cross(ds.x[i], ds.y[i], ds.x[j], ds.y[j]):
                crossings += 1
    assert crossings == 6  # all C(4, 2) pairs


def test_toy_control_has_no_crossings():
    ds = toy_crossing(crossing=False)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not _segments_cross(ds.x[i], ds.y[i], ds.x[j], ds.y[j])


def test_toy_control_is_double_reversal():
    rev = toy_crossing()
    ctrl = toy_crossing(crossing=False)
    assert np.array_equal(ctrl.y[:, 1], rev.y[::-1, 1])
    assert np.array_equal(ctrl.x, rev.x)


def test_load_csv_shapes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,t\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_csv(path, ["a", "b"], ["t"], TaskKind.regression())
    assert ds.x.shape == (3, 2) and ds.y.shape == (3, 1)
    assert ds.x[1, 0] == 4.0 and ds.y[2, 0] == 9.0


def test_load_csv_reports_bad_cell_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,t\n1,2,3\n4,abc,6\n")
    with pytest.raises(DataError, match=r"'abc' at row 2, column 'b'"):
        load_csv(path, ["a", "b"], ["t"], TaskKind.regression())


def test_load_csv_reports_short_row_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b,t\n1,2,3\n4,5\n")
    with pytest.raises(DataError, match=r"row 2 has no cell for column 't'"):
        load_csv(path, ["a", "b"], ["t"], TaskKind.regression())


def test_load_csv_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,t\n1,2\n\xff\xfe,3\n")
    with pytest.raises(DataError, match=r"d\.csv: not valid UTF-8"):
        load_csv(path, ["a"], ["t"], TaskKind.regression())


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="missing column 't'"):
        load_csv(path, ["a"], ["t"], TaskKind.regression())


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, ["a"], ["t"], TaskKind.regression())


def test_load_csv_classification_one_hot(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,c\n0.5,0\n0.6,1\n0.7,2\n0.8,1\n")
    ds = load_csv(path, ["a"], ["c"], "classification")
    assert ds.task == TaskKind.classification(3)
    assert ds.y.shape == (4, 3)
    assert np.array_equal(np.argmax(ds.y, axis=1), [0, 1, 2, 1])


def test_load_csv_rejects_class_index_beyond_num_classes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,c\n0.5,0\n0.6,3\n0.7,2\n")
    assert load_csv(path, ["a"], ["c"], TaskKind.classification(4)).y.shape == (3, 4)
    with pytest.raises(DataError, match=r"label 3 outside \[0, 3\)"):
        load_csv(path, ["a"], ["c"], TaskKind.classification(3))


def test_split_sizes_and_determinism():
    ds = synth_regression(10, 2, seed=0)
    train_a, val_a = split(ds, 0.6, seed=7)
    train_b, val_b = split(ds, 0.6, seed=7)
    assert train_a.n == 6 and val_a.n == 4
    assert np.array_equal(train_a.x, train_b.x)
    assert np.array_equal(val_a.y, val_b.y)


def test_split_train_side_is_standardized():
    ds = synth_regression(200, 3, seed=1)
    train, _ = split(ds, 0.6, seed=0)
    assert np.max(np.abs(train.x.mean(axis=0))) < 1e-10
    assert np.max(np.abs(train.x.std(axis=0) - 1.0)) < 1e-10
    assert np.max(np.abs(train.y.mean(axis=0))) < 1e-10


def test_split_rejects_degenerate_ratios():
    ds = synth_regression(4, 2, seed=0)
    with pytest.raises(DataError):
        split(ds, 0.01, seed=0)
    with pytest.raises(DataError):
        split(ds, 1.2, seed=0)


def test_standardize_round_trip():
    ds = synth_regression(50, 2, seed=3)
    norm = standardize(ds)
    back = denormalize_y(norm, norm.y)
    assert np.max(np.abs(back - ds.y)) < 1e-12


def test_apply_normalization_uses_external_stats():
    ds = synth_regression(50, 2, seed=3)
    train, _ = split(ds, 0.6, seed=0)
    other = apply_normalization(ds, train.x_mean, train.x_std, train.y_mean, train.y_std)
    assert np.allclose(other.x * train.x_std + train.x_mean, ds.x, atol=1e-12)


def test_duplicate_x_with_different_y_rejected():
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    y = np.array([[0.0], [1.0]])
    with pytest.raises(DataError, match="rows 0 and 1"):
        PairedDataset(x, y, TaskKind.regression())


def test_duplicate_x_with_same_y_allowed():
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    y = np.array([[3.0], [3.0]])
    ds = PairedDataset(x, y, TaskKind.regression())
    assert ds.n == 2


def _first_conflict_by_loop(x, y):
    """Reference: the row-by-row scan, keyed by the bytes of each x row."""
    seen = {}
    for i in range(x.shape[0]):
        key = x[i].tobytes()
        j = seen.get(key)
        if j is None:
            seen[key] = i
        elif not np.array_equal(y[i], y[j]):
            return j, i
    return None


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20),
    d_x=st.integers(min_value=1, max_value=3),
    d_y=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_duplicate_check_matches_row_loop(n, d_x, d_y, seed):
    # few distinct values, including -0.0 next to 0.0 (equal values, different bytes)
    rng = np.random.default_rng(seed)
    x = rng.choice([0.0, -0.0, 1.5], size=(n, d_x))
    y = rng.choice([0.0, -0.0, 2.0], size=(n, d_y))
    expected = _first_conflict_by_loop(x, y)
    if expected is None:
        assert PairedDataset(x, y, TaskKind.regression()).n == n
    else:
        with pytest.raises(DataError) as err:
            PairedDataset(x, y, TaskKind.regression())
        assert str(err.value).startswith(f"rows {expected[0]} and {expected[1]} share the same x")


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError, match="non-finite"):
        PairedDataset(np.array([[np.nan]]), np.array([[1.0]]), TaskKind.regression())


def test_synth_regression_is_deterministic():
    a = synth_regression(64, 3, seed=9)
    b = synth_regression(64, 3, seed=9)
    c = synth_regression(64, 3, seed=10)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert a.d_y == 1


def test_synth_generator_is_smooth_enough_to_fit():
    # sanity of the generator: a 64-hidden MLP drives train RMSE below 0.05
    ds = synth_regression(256, 2, seed=11)
    rng = np.random.default_rng(1)
    mlp = Mlp([2, 64, 1], activation="tanh", rng=rng, name="fit")
    params = mlp.parameters()
    state = AdamState.for_params(params)
    batches = np.random.default_rng(2)
    for step in range(20000):
        idx = batches.choice(ds.n, size=128, replace=False)
        loss = mean_all(sq_diff_rowsum(mlp.forward(ds.x[idx]), Tensor(ds.y[idx])))
        grads = backward(loss, params)
        adam_step(params, grads, state, cosine_lr(step, 20000, 3e-3))
    pred = mlp.forward(ds.x).data
    rmse = math.sqrt(float(np.mean((pred - ds.y) ** 2)))
    assert rmse < 0.05
