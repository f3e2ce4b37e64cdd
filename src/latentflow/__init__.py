"""Simulation-free training of continuous-depth models on paired data.

Velocity regression along closed-form interpolants in a jointly learned
embedding space, with ODE-solver inference, an unrolled-solver baseline, and
the diagnostic metrics used to analyse trajectory straightness.
"""

from .config import RunConfig
from .data import PairedDataset, TaskKind, load_csv, split, synth_regression, toy_crossing
from .diagnostics import build_report, disagreement, knn_probe, nfe_sweep, velocity_cosine_profile
from .model import (
    LatentFlowModel,
    ModelSpec,
    TrainLog,
    build_direct_fm,
    build_model,
    build_node_baseline,
    direct_fm_train,
    evaluate_metric,
    fit,
    node_baseline_train,
    train,
)
from .nn import AdamState, ColumnMap, Mlp, adam_step, cosine_lr
from .objectives import LossBreakdown, TimeSampler, flow_loss, label_ae_loss, total_loss
from .schedules import Schedule, get_schedule, interpolate, target_velocity
from .solvers import SolveResult, SolverSpec, solve, solve_with_grad
from .tensor import Tensor, backward, grad_check, no_grad

__version__ = "0.1.0"
