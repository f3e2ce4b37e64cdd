"""Shared fixtures: canonical datasets and session-scoped trained toy models."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentflow as lf


TOY_LATENT_CFG = dict(iterations=5000, batch_size=4, lr=1e-3, t_zero_prob=0.1,
                      label_noise_std=0.1, seed=0, log_every=1)


@pytest.fixture(scope="session")
def toy_ds() -> lf.PairedDataset:
    return lf.toy_crossing()


@pytest.fixture(scope="session")
def toy_latent(toy_ds):
    """Latent flow model trained to convergence on the crossing toy task."""
    spec = lf.ModelSpec(d_x=2, d_y=2, task=toy_ds.task, enc_hidden=32,
                        enc_depth=2, dyn_hidden=64, dyn_depth=3)
    model = lf.build_model(spec, seed=0)
    log = lf.train(model, toy_ds, lf.RunConfig(**TOY_LATENT_CFG))
    return model, log


@pytest.fixture(scope="session")
def toy_direct(toy_ds):
    """Data-space velocity regression trained on the crossing toy task."""
    model = lf.build_direct_fm(2, 2, toy_ds.task, hidden=64, depth=3, seed=0)
    cfg = lf.RunConfig(iterations=5000, batch_size=4, lr=1e-3, t_zero_prob=0.1,
                       seed=0, log_every=1)
    log = lf.direct_fm_train(model, toy_ds, cfg)
    return model, log


def make_small_model(seed: int = 3, schedule: str = "linear") -> lf.LatentFlowModel:
    """Tiny model for gradient checks: few parameters, full coverage."""
    spec = lf.ModelSpec(d_x=2, d_y=2, task=lf.TaskKind.regression(),
                        schedule=schedule, enc_hidden=8, enc_depth=2,
                        dyn_hidden=8, dyn_depth=2)
    return lf.build_model(spec, seed=seed)


def run_cli(*args: str, module: str = "latentflow", cwd=None,
            memory_limit: int = 1 << 30) -> subprocess.CompletedProcess:
    """``python -m <module> *args`` in a child process, with its output.

    The child's address space is capped at ``memory_limit`` bytes
    (``RLIMIT_AS``, set in the child only), so a command that asks for too
    much memory fails there with a MemoryError instead of taking the host's.
    One BLAS thread keeps OpenBLAS's per-thread buffers inside the cap.
    """
    src = str(Path(lf.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

    return subprocess.run([sys.executable, "-m", module, *args], cwd=cwd, env=env,
                          preexec_fn=cap_memory, capture_output=True, text=True, timeout=120)
