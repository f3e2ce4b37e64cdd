"""Analysis metrics: solver disagreement, velocity cosine profiles, 1-NN probes,
and metric-over-NFE sweeps.

Every solve goes through the model's one inference path, ``model.embed`` and
``model.flow``. ``build_report`` encodes x once (``model.embed``) and y once,
flows z0 once at euler:1 and once at dopri5, and passes these arrays to each
diagnostic: the disagreement, the cosine profile, the sweep's euler:1 and
dopri5 rows and the 1-NN probes. The cosine profile thus starts from
``embed``'s z0, which on OpenBLAS 0.3.31 has the whole-array bits when every
layer of f has at least three output columns. The 1-NN search is exact: it
picks the same reference as direct distances, the first of equally near ones.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .data import PairedDataset
from .model import output_metric, write_run_files
from .schedules import interpolate, target_velocity
from .solvers import SolverSpec, solve  # noqa: F401  perfbench's patch site; ROADMAP item 2 ends it
from .tensor import no_grad

__all__ = [
    "disagreement",
    "velocity_cosine_profile",
    "knn_probe",
    "nfe_sweep",
    "build_report",
    "write_report",
]

_REL_GAP_TOL = 1e-2  # regression predictions closer than this count as agreeing
_KNN_BLOCK_BYTES = 16 * 2**20  # working-set bound of one knn_probe block
# The one-step solver under test, and the adaptive solver every diagnostic
# treats as the faithful integration of the learned field.
_FAST = SolverSpec.euler(1)
_REFERENCE = SolverSpec.dopri5()
_T_GRID = np.linspace(0.0, 1.0, 21)
_NFE_LIST = (1, 2, 5, 10, 50, 100)


def disagreement(task, fast: np.ndarray, reference: np.ndarray) -> float:
    """Fraction of samples whose one-step prediction ``fast`` differs from the
    adaptive one, ``reference`` (both decoded outputs of the same z0).

    Classification compares argmax labels; regression counts a sample as
    disagreeing when the relative L2 gap against the adaptive prediction
    exceeds 1%. A proxy for trajectory straightness: a perfectly straight
    learned flow is integrated exactly by a single Euler step.
    """
    if task.is_classification:
        return float(np.mean(np.argmax(fast, axis=1) != np.argmax(reference, axis=1)))
    gap = np.linalg.norm(fast - reference, axis=1)
    ref = np.maximum(np.linalg.norm(reference, axis=1), 1e-12)
    return float(np.mean(gap / ref > _REL_GAP_TOL))


def velocity_cosine_profile(model, z0: np.ndarray, z1: np.ndarray) -> list[tuple[float, float]]:
    """Mean cosine similarity between predicted and target velocity at each t
    of ``_T_GRID``, 21 points evenly spaced over [0, 1].

    At each t the states and targets come from the schedule applied to the
    encoder outputs z0 = f(x) and z1 = g(y). A zero-norm vector on either side
    contributes cosine 0.
    """
    with no_grad():
        out = []
        for t in _T_GRID:
            t = float(t)
            z_t = interpolate(model.schedule, z0, z1, t)
            v_t = target_velocity(model.schedule, z0, z1, t)
            pred = model.velocity(z_t, t).data
            out.append((t, _mean_cosine(pred, v_t)))
    return out


def _mean_cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    cos = np.zeros(a.shape[0])
    ok = denom > 0
    cos[ok] = np.sum(a[ok] * b[ok], axis=1) / denom[ok]
    return float(cos.mean())


def knn_probe(ref_emb: np.ndarray, ref_labels: np.ndarray, query_emb: np.ndarray,
              query_labels: np.ndarray) -> float:
    """1-NN classification accuracy in an embedding space.

    Each query takes the label of its nearest reference, by the Euclidean
    distance ``np.linalg.norm(q - r)``; among equally near references the
    first one wins.

    Squared distances in Gram form, |q|^2 - 2 q.r + |r|^2, take one matrix
    product per block of queries but round differently, so they only rule
    references out: one stays a candidate unless its Gram value exceeds the
    row minimum by more than both forms' rounding error. A query with one
    candidate takes it; a query with several is measured directly.
    """
    ref_emb = np.asarray(ref_emb, dtype=np.float64)
    query_emb = np.asarray(query_emb, dtype=np.float64)
    if ref_emb.shape[0] < 1:
        raise ValueError("reference set must be nonempty")
    if query_emb.shape[0] < 1:
        raise ValueError("query set must be nonempty")
    ref_labels = np.asarray(ref_labels, dtype=int)
    query_labels = np.asarray(query_labels, dtype=int)
    n_ref, d = ref_emb.shape

    # With u = 2^-53, a Gram value is within (2d + 4) u (|q|^2 + |r|^2) of the
    # exact squared distance D, and the square of a direct distance within
    # (d + 4) u D of it, so a direct distance can be the row's smallest only
    # if its D exceeds the smallest D by under (2d + 8) u times that D.
    # np.finfo.tiny per term covers underflow. rel is twice the larger factor,
    # which also covers the rounding of the limit itself, so every reference
    # at the minimal direct distance stays a candidate.
    rel = 4 * (d + 4) * (np.finfo(np.float64).eps / 2)
    floor = (d + 1) * np.finfo(np.float64).tiny
    ref_sq = np.einsum("ij,ij->i", ref_emb, ref_emb)
    ref_sq_max = ref_sq.max()
    block = max(1, _KNN_BLOCK_BYTES // (9 * n_ref))  # the Gram block and its mask
    # direct distances as the [rows, r, d] difference tensor
    direct_rows = max(1, _KNN_BLOCK_BYTES // (n_ref * max(d, 1) * ref_emb.itemsize))
    correct = 0
    for start in range(0, query_emb.shape[0], block):
        q = query_emb[start: start + block]
        q_sq = np.einsum("ij,ij->i", q, q)
        gram = q @ ref_emb.T
        gram *= -2.0
        gram += q_sq[:, None]
        gram += ref_sq
        slack = rel * (q_sq + ref_sq_max) + floor
        limit = (1.0 + rel) * (gram.min(axis=1) + slack) + slack
        keep = gram > limit[:, None]
        del gram
        np.logical_not(keep, out=keep)  # a NaN keeps its whole row
        nearest = np.argmax(keep, axis=1)  # the first candidate
        tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > 1)
        del keep
        for lo in range(0, tied.size, direct_rows):
            rows = tied[lo: lo + direct_rows]
            dist = np.linalg.norm(q[rows, None, :] - ref_emb[None, :, :], axis=2)
            nearest[rows] = np.argmin(dist, axis=1)
        correct += int(np.count_nonzero(ref_labels[nearest] == query_labels[start: start + block]))
    return correct / query_emb.shape[0]


def nfe_sweep(model, ds: PairedDataset, z0: np.ndarray, solved) -> list[dict]:
    """Evaluation metric on every row of ``ds`` per Euler step count of
    ``_NFE_LIST``, then a dopri5 entry reporting its measured NFE, each from
    z0 = ``model.embed(ds.x)``. ``solved`` maps the specs already flowed from z0
    to their ``model.flow`` results, used instead of solving again, or is ``{}``."""
    rows = []
    for spec in [SolverSpec.euler(n) for n in _NFE_LIST] + [_REFERENCE]:
        out, res = solved[spec] if spec in solved else model.flow(z0, spec)
        metric = output_metric(model.task, ds, out)
        rows.append({"solver": spec.label(), "nfe": res.nfe, "metric": metric})
    return rows


def _knn_pair(task, ds: PairedDataset, z0: np.ndarray, z1: np.ndarray,
              z1hat: np.ndarray) -> tuple[float, float]:
    """1-NN probes in the raw-embedding and post-flow spaces.

    Classification: the dataset is split into alternating reference/query
    halves and class labels are probed in z0 space and in dopri5-solved z1hat
    space. Regression: each sample's query embedding is matched against the
    label embeddings z1 = g(y); accuracy is the fraction that retrieve their
    own pair, before the flow (z0) and after it (z1hat).
    """
    if task.is_classification:
        labels = np.argmax(ds.y, axis=1)
        ref = np.arange(ds.n) % 2 == 0
        qry = ~ref
        if not qry.any():
            ref = qry = np.ones(ds.n, dtype=bool)
        acc0 = knn_probe(z0[ref], labels[ref], z0[qry], labels[qry])
        acc1 = knn_probe(z1hat[ref], labels[ref], z1hat[qry], labels[qry])
        return acc0, acc1
    pair_ids = np.arange(ds.n)
    acc0 = knn_probe(z1, pair_ids, z0, pair_ids)
    acc1 = knn_probe(z1, pair_ids, z1hat, pair_ids)
    return acc0, acc1


def build_report(model, ds: PairedDataset) -> dict:
    """Every diagnostic of ``model`` on ``ds``, as the report.json dict, sharing
    one encoding of x and of y and one euler:1 and one dopri5 flow."""
    z0 = model.embed(ds.x)
    with no_grad():
        z1 = model.encode_label(ds.y).data
    fast, reference = model.flow(z0, _FAST), model.flow(z0, _REFERENCE)
    acc0, acc1 = _knn_pair(model.task, ds, z0, z1, reference[1].z_final.data)
    return {
        "disagreement_fraction": disagreement(model.task, fast[0], reference[0]),
        "cosine_profile": [{"t": t, "mean_cosine": c}
                           for t, c in velocity_cosine_profile(model, z0, z1)],
        "knn_accuracy_z0": acc0,
        "knn_accuracy_z1hat": acc1,
        "nfe_sweep": nfe_sweep(model, ds, z0, {_FAST: fast, _REFERENCE: reference}),
    }


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_report(report: dict, out_dir) -> None:
    """Write ``build_report``'s dict as report.json plus CSVs for the cosine
    profile and the NFE sweep, all three in place only once all are written."""
    write_run_files(out_dir, {
        "report.json": lambda path: path.write_text(json.dumps(report, indent=2, sort_keys=True)),
        "cosine_profile.csv": lambda path: _write_csv(path, ["t", "mean_cosine"], (
            [repr(row["t"]), repr(row["mean_cosine"])] for row in report["cosine_profile"])),
        "nfe_sweep.csv": lambda path: _write_csv(
            path, ["nfe", "metric"], ([row["nfe"], repr(row["metric"])] for row in report["nfe_sweep"])),
    })
