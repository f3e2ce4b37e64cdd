"""latentflow benchmark: drive the CLI in-process on one workload and report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 36 --trace 0

Each run generates its inputs from ``--seed``, repeats the set-up train
several times, then runs closed-loop cycles of CLI commands (each command
starts when the previous one returned) for ``--seconds`` seconds, checking
every command's outputs. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from
a traced run (see tracing.py) and the tracing overhead. Metric definitions,
the speed calibration and the reasons for each workload are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
from tracing import EVAL_SOLVERS, EXPECTED_TRAIN_NFE

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "work"

# One BLAS thread: the benchmark is a single closed-loop process on a small
# shared machine, and a second BLAS thread there adds more spread than speed.
BLAS_THREADS = "1"
SETUP_REPS = 3
# Traced runs go on past --seconds (up to 1.5 times as long) until this many
# training-step times were traced, so that their p99 has 10 samples beyond it.
MIN_TRACED_STEPS = 1000

# The crossing toy as in acceptance criterion 4 (enc_hidden 32, batch 4,
# node_steps 8), at a rate that reaches an euler:1 MSE below 1e-3 in 500
# steps on every seed tried (0-4).
_TOY = {"dataset": "toy", "batch_size": 4, "enc_hidden": 32, "node_steps": 8,
        "log_every": 1, "iterations": 500, "lr": 3e-3, "node_lr": 3e-3}


@dataclass(frozen=True)
class Workload:
    """CLI inputs of one workload; ``{seed}`` in a dataset spec is the run seed.

    ``setup`` configures the set-up `train`, whose checkpoint `eval` and
    `diagnose` read. Every cycle runs `train` (``train``), the `eval` solvers
    (``eval_reps`` times each), `diagnose` and `compare` (``compare``).
    """

    name: str
    setup: dict
    train: dict
    compare: dict
    eval_reps: dict
    diagnose_dataset: str | None = None
    max_mse_euler1: float | None = None  # acceptance criterion 4 level
    max_train_rmse: float | None = None  # for the timed train


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("toy-train", setup=_TOY, train=_TOY, compare=_TOY,
                 eval_reps={"euler:1": 10, "euler:100": 10, "dopri5": 10},
                 max_mse_euler1=1e-2),
        Workload("synth-train",
                 setup={"dataset": "synth:4096,16,{seed}", "batch_size": 1024, "iterations": 20,
                        "lr": 2e-3, "log_every": 1},
                 train={"dataset": "synth:4096,16,{seed}", "batch_size": 1024, "iterations": 200,
                        "lr": 2e-3, "log_every": 1},
                 compare={"dataset": "synth:1024,16,{seed}", "batch_size": 1024, "iterations": 20,
                          "lr": 2e-3, "node_steps": 8, "log_every": 1},
                 eval_reps={"euler:1": 5, "euler:100": 2, "dopri5": 3},
                 diagnose_dataset="synth:256,16,{seed}",
                 # Checked on the timed train: 1.2x the largest final RMSE of
                 # the unchanged code over seeds 0-9 (0.398). Predicting the
                 # mean scores about 0.40, so this catches divergence only.
                 max_train_rmse=0.48),
        Workload("synth-infer",
                 # 400 steps at batch 256 give dopri5 31 NFE on every seed
                 # tried (0-19); 200 steps gave 25 or 31 depending on the seed.
                 setup={"dataset": "synth:20000,16,{seed}", "batch_size": 256, "iterations": 400,
                        "lr": 2e-3, "log_every": 100},
                 train={"dataset": "synth:2000,16,{seed}", "batch_size": 128, "iterations": 100,
                        "lr": 2e-3, "log_every": 1},
                 compare={"dataset": "synth:500,16,{seed}", "batch_size": 128, "iterations": 50,
                          "lr": 2e-3, "node_steps": 8, "log_every": 1},
                 eval_reps={"euler:1": 5, "euler:100": 1, "dopri5": 1},
                 diagnose_dataset="synth:1000,16,{seed}"),
    )
}

E2E_METRICS = {  # name -> unit
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "compare_s": "s",
    "eval_rows_per_s.euler1": "1/s",
    "eval_rows_per_s.euler100": "1/s",
    "eval_rows_per_s.dopri5": "1/s",
    "diagnose_s": "s",
    "peak_rss_mb": "MB",
}


class SpeedProbe:
    """A fixed reference kernel, timed around every command to track host speed.

    It mixes the workloads' two regimes: small-array steps, where time is
    Python and numpy call overhead, and [1024, 65] x [65, 64] matmuls, where
    time is BLAS work.
    """

    # A fixed scale, close to the kernel's time on a quiet 2-vCPU Intel Xeon
    # VM (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread), where
    # medians between 9 and 12 ms were measured as the host's load changed.
    REF_SECONDS = 0.010

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((4, 33))
        self.w1 = rng.standard_normal((33, 32))
        self.w2 = rng.standard_normal((32, 33))
        self.a = rng.standard_normal((1024, 65))
        self.b = rng.standard_normal((65, 64))

    def seconds(self) -> float:
        np, x, w1, w2 = self.np, self.x, self.w1, self.w2
        t0 = perf_counter()
        for _ in range(150):
            h = np.tanh(x @ w1)
            g = 2.0 * (h @ w2 - x)
            gh = (g @ w2.T) * (1.0 - h * h)
            grads = {"w1": x.T @ gh, "w2": h.T @ g}
            sum(float(np.abs(v).max()) for v in grads.values())
        for _ in range(10):
            np.tanh(self.a @ self.b)
        return perf_counter() - t0


@dataclass
class Command:
    argv: list[str]
    kernel: float  # mean reference-kernel time just before and just after the command
    rc: int | None
    wall: float
    stdout: str
    error: str = ""


@dataclass
class Run:
    """Everything one benchmark run measures and checks."""

    workload: Workload
    seed: int
    work: Path
    probe: SpeedProbe
    # metric -> (command seconds, kernel seconds, work) per sample
    samples: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    cycles: list[tuple[bool, float]] = field(default_factory=list)  # (traced, reference seconds)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    checkpoint_hashes: dict[str, str] = field(default_factory=dict)
    tracer: object = None  # set while a traced cycle runs

    def config(self, cfg: dict) -> str:
        lines = [f"{k} = {str(v).format(seed=self.seed)}" for k, v in cfg.items()]
        return "\n".join(lines + [f"seed = {self.seed}"]) + "\n"

    def sample(self, metric: str, cmd: Command, work: float = 1.0) -> None:
        self.samples.setdefault(metric, []).append((cmd.wall, cmd.kernel, work))

    def command(self, argv: list[str]) -> Command:
        """Run one CLI command between two timings of the reference kernel."""
        gc.collect()  # each command starts with a clean heap, as in a fresh process
        before = self.probe.seconds()
        rc, wall, stdout, error = run_cli(argv, self.tracer)
        kernel = (before + self.probe.seconds()) / 2
        return Command(argv, kernel, rc, wall, stdout, error)

    def value(self, metric: str, unit: str) -> float:
        """A time or rate at the reference machine's speed; see README.md."""
        if metric == "setup_s":  # the median of the set-up repetitions
            return statistics.median(reference_value([s], unit) for s in self.samples[metric])
        return reference_value(self.samples[metric], unit)

    def as_measured(self, metric: str, unit: str) -> float:
        vals = [wall if unit == "s" else work / wall for wall, _, work in self.samples[metric]]
        return statistics.median(vals)

    def record(self, cmd: Command, problems: list[str]) -> None:
        """Count one attempted operation; it failed if the command or any check did."""
        self.attempted += 1
        if cmd.rc != 0:
            problems = [f"exit code {cmd.rc} {cmd.error}".strip(), *problems]
        if problems:
            self.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")


def reference_value(samples: list[tuple[float, float, float]], unit: str) -> float:
    """Mean command time scaled by REF_SECONDS over the mean kernel time next to it.

    Returned as a time for unit "s" and as work per reference second for "1/s".
    """
    walls, kernels, work = zip(*samples)
    seconds = SpeedProbe.REF_SECONDS * sum(walls) / sum(kernels)
    return seconds if unit == "s" else work[0] / seconds


def run_cli(argv: list[str], tracer=None) -> tuple[int | None, float, str, str]:
    """Run one latentflow command in-process, timed from outside the package.

    Returns the exit code (None if it raised), the wall time, stdout and the
    last error line. With a tracer, its patches are in place for this command
    only, so the benchmark's own output checks are never traced.
    """
    import latentflow.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), tracer.installed() if tracer else nullcontext():
            rc = latentflow.cli.main(argv)
        error = err.getvalue().strip().splitlines()[-1:] if rc else []
        error = error[0] if error else ""
    except Exception:  # a crashing command is a failed operation, not a crashed benchmark
        rc, error = None, traceback.format_exc().strip().splitlines()[-1]
    return rc, perf_counter() - t0, out.getvalue(), error


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON output")


def parse_output(text: str) -> tuple[object, list[str]]:
    """The command's stdout JSON, and a problem if it is missing or not finite."""
    try:
        return json.loads(text, parse_constant=_reject_constant), []
    except ValueError as exc:
        return None, [f"stdout is not finite JSON: {exc}"]


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# -- the commands of a cycle, each with its output checks ------------------------


def do_train(run: Run, cfg: dict, out: Path, tag: str) -> Command:
    cfg_path = out.with_suffix(".cfg")
    cfg_path.write_text(run.config(cfg))
    cmd = run.command(["train", "--config", str(cfg_path), "--out", str(out)])
    run.record(cmd, check_train(run, out, tag) if cmd.rc == 0 else [])
    return cmd


def check_train(run: Run, out: Path, tag: str) -> list[str]:
    from latentflow.cli import build_model
    from latentflow.model import ModelSpec
    from latentflow.nn import load_checkpoint

    try:
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
        loaded = load_checkpoint(out / "checkpoint.json")
    except (OSError, ValueError) as exc:
        return [f"run directory unreadable: {exc}"]
    problems = []
    expected = build_model(ModelSpec.from_dict(manifest["model_spec"]), 0).named_parameters()
    for pname, p in expected:
        arr = loaded.get(pname)
        if arr is None or arr.shape != p.data.shape or not _finite(*arr.reshape(-1).tolist()):
            problems.append(f"checkpoint parameter {pname} missing, misshapen or non-finite")
    digest = hashlib.sha256((out / "checkpoint.json").read_bytes()).hexdigest()
    if run.checkpoint_hashes.setdefault(tag, digest) != digest:
        problems.append("checkpoint differs from an earlier run of the same config and seed")
    rmse = manifest["final_metrics"].get("train_metric")
    if not _finite(rmse):
        problems.append(f"train_metric {rmse!r} is not finite")
    elif run.workload.max_mse_euler1 is not None and rmse ** 2 >= run.workload.max_mse_euler1:
        problems.append(f"euler:1 MSE {rmse ** 2:.3g} >= {run.workload.max_mse_euler1}")
    elif tag == "train" and run.workload.max_train_rmse is not None \
            and rmse >= run.workload.max_train_rmse:
        problems.append(f"train RMSE {rmse:.4g} >= {run.workload.max_train_rmse}")
    return problems


def do_eval(run: Run, ckpt: Path, solver: str) -> Command:
    cmd = run.command(["eval", "--checkpoint", str(ckpt), "--solver", solver])
    problems = []
    if cmd.rc == 0:
        payload, problems = parse_output(cmd.stdout)
        if payload is not None:
            nfe, metric = payload.get("nfe_mean"), payload.get("metric")
            if not _finite(nfe, metric):
                problems.append(f"eval output {payload!r} lacks finite metric and nfe_mean")
            elif solver.startswith("euler:") and nfe != int(solver[6:]):
                problems.append(f"nfe_mean {nfe} at {solver}")
            elif solver == "dopri5" and (nfe < 7 or (nfe - 1) % 6 != 0):
                problems.append(f"dopri5 nfe_mean {nfe} is not 1 + 6 * steps")
            elif solver == "euler:1" and run.workload.max_mse_euler1 is not None \
                    and metric ** 2 >= run.workload.max_mse_euler1:
                problems.append(f"euler:1 MSE {metric ** 2:.3g} >= {run.workload.max_mse_euler1}")
    run.record(cmd, problems)
    return cmd


def do_diagnose(run: Run, ckpt: Path, out: Path) -> Command:
    argv = ["diagnose", "--checkpoint", str(ckpt), "--out", str(out)]
    if run.workload.diagnose_dataset:
        argv += ["--dataset", run.workload.diagnose_dataset.format(seed=run.seed)]
    cmd = run.command(argv)
    problems = []
    if cmd.rc == 0:
        payload, problems = parse_output(cmd.stdout)
        if payload is not None:
            fractions = (payload.get("disagreement_fraction"), payload.get("knn_accuracy_z0"),
                         payload.get("knn_accuracy_z1hat"))
            if not _finite(*fractions) or not all(0.0 <= f <= 1.0 for f in fractions):
                problems.append(f"fractions {fractions} outside [0, 1]")
            for row in payload.get("nfe_sweep", []):
                if row["solver"].startswith("euler:") and row["nfe"] != int(row["solver"][6:]):
                    problems.append(f"nfe_sweep row {row}")
    run.record(cmd, problems)
    return cmd


def do_compare(run: Run, cfg: dict, out: Path) -> Command:
    cfg_path = out.with_suffix(".cfg")
    cfg_path.write_text(run.config(cfg))
    cmd = run.command(["compare", "--config", str(cfg_path), "--out", str(out)])
    problems = []
    if cmd.rc == 0:
        payload, problems = parse_output(cmd.stdout)
        if payload is not None:
            nfe = {row["method"]: row["train_nfe_per_step"] for row in payload["rows"]}
            if nfe != EXPECTED_TRAIN_NFE:
                problems.append(f"train_nfe_per_step {nfe} != {EXPECTED_TRAIN_NFE}")
            latent = payload["rows"][0]
            if run.workload.max_mse_euler1 is not None \
                    and not latent["metric_euler1"] < run.workload.max_mse_euler1:
                problems.append(f"latent euler:1 MSE {latent['metric_euler1']:.3g}")
    run.record(cmd, problems)
    return cmd


# -- set-up and cycles -------------------------------------------------------------


def set_up(run: Run) -> Path:
    """Train the set-up checkpoint SETUP_REPS times; return the last run directory."""
    for rep in range(SETUP_REPS):
        out = run.work / f"setup{rep}"
        run.sample("setup_s", do_train(run, run.workload.setup, out, "setup"))
    return out


def run_cycle(run: Run, ckpt: Path, rows: int, tracer=None) -> None:
    wl = run.workload
    run.tracer = tracer
    cmds = [do_train(run, wl.train, run.work / "train", "train")]
    run.sample("train_samples_per_s", cmds[-1], wl.train["iterations"] * wl.train["batch_size"])
    for solver, key in EVAL_SOLVERS.items():
        for _ in range(wl.eval_reps[solver]):
            cmds.append(do_eval(run, ckpt, solver))
            run.sample(f"eval_rows_per_s.{key}", cmds[-1], rows)
    cmds.append(do_diagnose(run, ckpt, run.work / "diagnose"))
    run.sample("diagnose_s", cmds[-1])
    cmds.append(do_compare(run, wl.compare, run.work / "compare"))
    run.sample("compare_s", cmds[-1])
    cycle = [(c.wall, c.kernel, 1.0) for c in cmds]
    run.cycles.append((tracer is not None, len(cmds) * reference_value(cycle, "s")))
    run.tracer = None


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Run]:
    """Set up, run cycles for ``seconds``, and return the result object and the run."""
    work = WORK_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wl, seed, work, SpeedProbe())
    ckpt = set_up(run)
    rows = json.loads((ckpt / "manifest.json").read_text())["dims"]["n_train"]

    tracer = tracing.Tracer() if trace else None
    t0 = perf_counter()
    while True:
        # In a traced run every third cycle is untraced, to measure the overhead.
        traced = tracer if tracer is not None and len(run.cycles) % 3 != 1 else None
        run_cycle(run, ckpt, rows, traced)
        elapsed = perf_counter() - t0
        typical = elapsed / len(run.cycles)
        if trace:
            step_gaps = (wl.train["iterations"] - 1) * sum(t for t, _ in run.cycles)
            if len(run.cycles) < 2 or (step_gaps < MIN_TRACED_STEPS
                                       and elapsed + typical <= 1.5 * seconds):
                continue
        if elapsed + typical / 2 > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        metrics = traced_metrics(run, tracer)
    else:
        metrics = {name: {"value": run.value(name, unit), "unit": unit}
                   for name, unit in E2E_METRICS.items() if name != "peak_rss_mb"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return result, run


def traced_metrics(run: Run, tracer) -> dict:
    values, violations = tracing.layer_metrics(tracer)
    traced = [wall for t, wall in run.cycles if t]
    plain = [wall for t, wall in run.cycles if not t]
    values["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    run.attempted += 1  # the invariant checks of the whole run are one operation
    if violations:
        run.failures.append(f"invariants: {'; '.join(violations)}")
    tracer.write(run.work / "spans.npz")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.per_layer_units().items()}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": int(BLAS_THREADS),
            "cpu": cpu, "nproc": os.cpu_count()}


def prepare() -> None:
    """Pin BLAS threads (before numpy loads) and make the sources importable."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["LATENTFLOW_LOG"] = "warning"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latentflow" / "cli.py").is_file():
        print(f"perfbench: no latentflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare()

    result, run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "result": result, "failures": run.failures,
              "samples": {k: [dict(zip(("wall", "kernel", "work"), v)) for v in vs]
                          for k, vs in run.samples.items()},
              "cycles": run.cycles}
    (run.work / "report.json").write_text(json.dumps(report, indent=1))
    print(f"# environment {json.dumps(env)}")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    for name, metric in result["metrics"].items():
        note = ""
        if name in run.samples:
            note = f"  (n={len(run.samples[name])}, median as measured " \
                   f"{run.as_measured(name, metric['unit']):.6g})"
        print(f"# {name:40s} {metric['value']:14.6g} {metric['unit']}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
