"""Span tracing of latentflow from outside the package, and the per-layer metrics.

The tracer replaces public names where their callers look them up (a module
global such as ``latentflow.model.total_loss``, or a class attribute such as
``latentflow.nn.Mlp.forward``) with wrappers that record one span per call:
name, start, end and the enclosing span. Spans stay in flat in-memory arrays
and are written out once, when the run ends; self time is a span's duration
minus the durations of its direct children.

Every named patch site must exist: a rename in ``src/`` makes the traced run
raise instead of silently losing a layer. Tensor primitives are the exception,
because the tape's op set is expected to change: they are discovered from
``latentflow.tensor.__all__`` in every module that imported them.

numpy is imported inside functions, so that importing this module's
constants loads no numpy before run.py has pinned the BLAS threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import tracemalloc
from array import array
from time import perf_counter

# Tensor op kinds reported by name. Kinds that stop being called report 0.
OP_KINDS = ("matmul", "transpose", "add", "mul", "scale", "tanh", "relu",
            "concat_cols", "mean_all", "sq_diff_rowsum")
NETS = ("f", "g", "d", "h")
EVAL_SOLVERS = {"euler:1": "euler1", "euler:100": "euler100", "dopri5": "dopri5"}
COMMANDS = ("train", "compare", "eval", "diagnose")

# Mlp.build names -> the paper's network letters (f data encoder, g label
# encoder, d label decoder, h dynamics); "dec" is the NODE baseline's decoder.
_NET_OF_PREFIX = {"enc": "f", "lenc": "g", "ldec": "d", "dec": "d", "dyn": "h"}

# Training loops, keyed by the method name that `compare` prints.
_LOOPS = {"model.train": "latent_fm", "model.direct_fm_train": "direct_fm",
          "model.node_baseline_train": "node_euler8"}
EXPECTED_TRAIN_NFE = {"latent_fm": 1.0, "direct_fm": 1.0, "node_euler8": 8.0}

# (module, attribute, span name). Each is patched where its caller looks it up.
_SITES = (
    ("latentflow.cli", "main", None),  # span named cli.<command>
    ("latentflow.cli", "toy_crossing", "data.toy_crossing"),
    ("latentflow.cli", "synth_regression", "data.synth_regression"),
    ("latentflow.cli", "standardize", "data.standardize"),
    ("latentflow.cli", "apply_normalization", "data.apply_normalization"),
    ("latentflow.cli", "build_model", "model.build"),
    ("latentflow.cli", "build_direct_fm", "model.build"),
    ("latentflow.cli", "build_node_baseline", "model.build"),
    ("latentflow.cli", "load_model_params", "model.load_params"),
    ("latentflow.cli", "train", "model.train"),
    ("latentflow.cli", "direct_fm_train", "model.direct_fm_train"),
    ("latentflow.cli", "node_baseline_train", "model.node_baseline_train"),
    ("latentflow.cli", "evaluate_metric", "model.evaluate_metric"),
    ("latentflow.cli", "build_report", "diagnostics.build_report"),
    ("latentflow.model.LatentFlowModel", "predict_raw", "model.predict_raw"),
    ("latentflow.model", "total_loss", "objectives.total_loss"),
    ("latentflow.model", "flow_loss", "objectives.flow_loss"),
    ("latentflow.model", "backward", "tensor.backward"),
    ("latentflow.model", "adam_step", "nn.adam"),
    ("latentflow.model", "solve", "solvers.solve"),
    ("latentflow.model", "solve_with_grad", "solvers.solve_with_grad"),
    ("latentflow.objectives", "interpolate", "schedules.interpolate"),
    ("latentflow.objectives", "target_velocity", "schedules.target_velocity"),
    ("latentflow.nn.Mlp", "forward", None),  # span named nn.forward.<net>
    ("latentflow.nn", "save_checkpoint", "nn.save_checkpoint"),
    ("latentflow.nn", "load_checkpoint", "nn.load_checkpoint"),
    ("latentflow.diagnostics", "solve", "solvers.solve"),
    ("latentflow.diagnostics", "knn_probe", "diagnostics.knn_probe"),
    ("latentflow.diagnostics", "nfe_sweep", "diagnostics.nfe_sweep"),
    ("latentflow.diagnostics", "disagreement", "diagnostics.disagreement"),
    ("latentflow.diagnostics", "velocity_cosine_profile", "diagnostics.cosine_profile"),
)

# Modules whose imported tensor primitives are wrapped.
_OP_USERS = ("latentflow.tensor", "latentflow.nn", "latentflow.objectives",
             "latentflow.schedules", "latentflow.solvers", "latentflow.model")
_NOT_OPS = {"Tensor", "GradientMap", "ShapeMismatch", "AutodiffError", "no_grad",
            "as_tensor", "backward", "grad_check"}


class MissingPatchSite(LookupError):
    """A name the tracer must wrap is gone from latentflow."""


def _resolve(path: str):
    """Import a dotted module path, or a class inside a module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None:
            raise MissingPatchSite(f"{path} no longer exists") from None
        return owner


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"tensor.nodes_per_step": "count", "tensor.backward_ms": "ms",
             "tensor.op_mb_per_step": "MB"}
    units.update({f"tensor.op_calls_per_step.{k}": "count" for k in OP_KINDS})
    units.update({f"tensor.op_self_ms.{k}": "ms" for k in OP_KINDS})
    units.update({f"nn.forward_calls_per_step.{n}": "count" for n in NETS})
    units.update({f"nn.forward_self_ms.{n}": "ms" for n in NETS})
    units.update({"nn.adam_ms": "ms", "nn.checkpoint_load_ms": "ms", "nn.checkpoint_save_ms": "ms",
                  "nn.checkpoint_bytes": "bytes", "schedules.combine_ms": "ms",
                  "objectives.total_loss_self_ms": "ms"})
    for stat, unit in (("solve_ms", "ms"), ("self_ms", "ms"), ("nfe", "count")):
        units.update({f"solvers.{stat}.{s}": unit for s in EVAL_SOLVERS.values()})
    units.update({"solvers.accept_ratio.dopri5": "ratio", "solvers.solve_with_grad_ms": "ms",
                  "model.train_step_ms.p50": "ms", "model.train_step_ms.p99": "ms",
                  "model.train_step_samples": "count"})
    units.update({f"model.train_nfe_per_step.{m}": "count" for m in EXPECTED_TRAIN_NFE})
    units.update({"model.predict_ms": "ms", "data.dataset_ms": "ms",
                  "diagnostics.knn_probe_ms": "ms", "diagnostics.knn_probe_peak_mb": "MB",
                  "diagnostics.nfe_sweep_ms": "ms", "diagnostics.disagreement_ms": "ms",
                  "diagnostics.cosine_profile_ms": "ms"})
    units.update({f"cli.self_ms.{c}": "ms" for c in COMMANDS})
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]
        self._patches = self._plan()

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.nbytes.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _leave(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, before=None, after=None):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(name(args) if callable(name) else name)
            if before is not None:
                before(idx, args)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(idx)
            if after is not None:
                after(idx, args, out)
            return out

        return traced

    # -- what gets wrapped -------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        import latentflow.tensor as tensor

        plan = []
        for path, attr, span in _SITES:
            owner = _resolve(path)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                raise MissingPatchSite(f"{path}.{attr} no longer exists")
            before, after = self._hooks(span)
            if attr == "main":
                span = lambda args: f"cli.{(args[0] if args else ['?'])[0]}"  # noqa: E731
            elif attr == "forward":
                span = _forward_span_name
            plan.append((owner, attr, original, self._wrap(original, span, before, after)))

        ops = {name: getattr(tensor, name) for name in tensor.__all__ if name not in _NOT_OPS}
        if not ops:
            raise MissingPatchSite("latentflow.tensor exports no primitives")
        kinds = {fn: name for name, fn in ops.items()}
        for path in _OP_USERS:
            module = importlib.import_module(path)
            # module globals, and module-level tables such as nn's activation map
            for owner in (vars(module), *(v for v in vars(module).values() if type(v) is dict)):
                for key, fn in list(owner.items()):
                    if callable(fn) and fn in kinds:
                        wrapper = self._wrap(fn, f"tensor.{kinds[fn]}", after=self._op_bytes)
                        plan.append((owner, key, fn, wrapper))
        return plan

    def _hooks(self, span):
        if span == "nn.adam":
            return self._adam_probe, None
        if span == "solvers.solve":
            return None, self._solve_stats
        if span == "nn.save_checkpoint":
            return None, self._checkpoint_size
        if span == "diagnostics.knn_probe":
            return self._malloc_start, self._malloc_peak
        return None, None

    def _op_bytes(self, idx, args, out):
        self.nbytes[idx] = out.data.nbytes

    def _adam_probe(self, idx, args):
        # Tensor ids grow by one per Tensor made; the probe itself takes one.
        from latentflow.tensor import Tensor

        self.attrs[idx] = {"node_id": Tensor(0.0).id}

    def _solve_stats(self, idx, args, res):
        spec = args[4]
        self.attrs[idx] = {"solver": "dopri5" if spec.kind == "dopri5" else f"{spec.kind}:{spec.n_steps}",
                           "kind": spec.kind, "n_steps": spec.n_steps, "nfe": res.nfe,
                           "accepted": res.accepted_steps, "rejected": res.rejected_steps}

    def _checkpoint_size(self, idx, args, out):
        self.attrs[idx] = {"bytes": os.path.getsize(args[0])}

    def _malloc_start(self, idx, args):
        tracemalloc.start()

    def _malloc_peak(self, idx, args, out):
        self.attrs[idx] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
        tracemalloc.stop()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every patch site for the duration of the block."""
        for owner, attr, _original, wrapper in self._patches:
            _set(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _wrapper in reversed(self._patches):
                _set(owner, attr, original)
            tracemalloc.stop()  # in case knn_probe raised before its hook stopped it

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        import numpy as np

        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64),
        }

    def write(self, path) -> None:
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _set(owner, attr: str, value) -> None:
    if type(owner) is dict:
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _forward_span_name(args) -> str:
    first = args[0].layers[0].weight.name or ""
    return "nn.forward." + _NET_OF_PREFIX.get(first.split(".")[0], "other")


def layer_metrics(tr: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the recorded spans, plus invariant violations.

    Step metrics come from the training loop of `train` commands and are per
    optimizer step. Solver and prediction metrics come from `eval` commands,
    diagnostics metrics from `diagnose` commands, and are per call or per
    command as named in perfbench/README.md.
    """
    import numpy as np

    a = tr.arrays()
    n = a["start"].size
    name, parent = a["name"], a["parent"]
    dur = a["end"] - a["start"]
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)

    def nid(span: str) -> int:
        return tr._name_ids.get(span, -1)

    def is_name(span: str) -> np.ndarray:
        return name == nid(span)

    def prefixed(prefix: str) -> np.ndarray:
        return np.isin(name, [i for i, nm in enumerate(tr.names) if nm.startswith(prefix)])

    # Root command and innermost enclosing training loop of every span;
    # a parent always precedes its children.
    loop_ids = {nid(span) for span in _LOOPS}
    root = np.empty(n, dtype=np.int64)
    loop = np.full(n, -1, dtype=np.int64)
    name_l = name.tolist()
    for i, p in enumerate(parent.tolist()):
        if p < 0:
            root[i] = i
        else:
            root[i] = root[p]
            loop[i] = p if name_l[p] in loop_ids else loop[p]
    root_is = lambda span: name[root] == nid(span)  # noqa: E731
    loop_is = lambda span: (loop >= 0) & (name[np.maximum(loop, 0)] == nid(span))  # noqa: E731

    def mean_ms(mask: np.ndarray, w: np.ndarray = dur) -> float:
        return float(w[mask].mean() * 1e3) if mask.any() else 0.0

    m: dict[str, float] = {}
    violations: list[str] = []

    # -- training steps of `train` commands ---------------------------------
    in_step = root_is("cli.train") & loop_is("model.train")
    adam = np.flatnonzero(in_step & is_name("nn.adam"))
    steps = max(adam.size, 1)

    def count_per_step(mask: np.ndarray) -> float:
        return float(mask.sum() / steps)

    def ms_per_step(mask: np.ndarray, w: np.ndarray) -> float:
        return float(w[mask].sum() * 1e3 / steps)

    gaps, id_deltas = [], []
    for lp in np.unique(loop[adam]):
        idx = adam[loop[adam] == lp]
        gaps.append(np.diff(a["start"][idx]) * 1e3)
        id_deltas.append(np.diff([tr.attrs[int(i)]["node_id"] for i in idx]) - 1)
    gaps = np.concatenate(gaps) if gaps else np.zeros(0)
    id_deltas = np.concatenate(id_deltas) if id_deltas else np.zeros(0)
    m["tensor.nodes_per_step"] = float(np.median(id_deltas)) if id_deltas.size else 0.0
    m["tensor.backward_ms"] = ms_per_step(in_step & is_name("tensor.backward"), dur)
    ops = in_step & prefixed("tensor.") & ~is_name("tensor.backward")
    m["tensor.op_mb_per_step"] = float(a["nbytes"][ops].sum() / steps / 1e6)
    for k in OP_KINDS:
        m[f"tensor.op_calls_per_step.{k}"] = count_per_step(in_step & is_name(f"tensor.{k}"))
    for k in OP_KINDS:
        m[f"tensor.op_self_ms.{k}"] = ms_per_step(in_step & is_name(f"tensor.{k}"), self_t)
    for net in NETS:
        m[f"nn.forward_calls_per_step.{net}"] = count_per_step(in_step & is_name(f"nn.forward.{net}"))
    for net in NETS:
        m[f"nn.forward_self_ms.{net}"] = ms_per_step(in_step & is_name(f"nn.forward.{net}"), self_t)
    m["nn.adam_ms"] = ms_per_step(in_step & is_name("nn.adam"), dur)
    m["nn.checkpoint_load_ms"] = mean_ms(is_name("nn.load_checkpoint"))
    m["nn.checkpoint_save_ms"] = mean_ms(is_name("nn.save_checkpoint"))
    saves = [tr.attrs[int(i)]["bytes"] for i in np.flatnonzero(is_name("nn.save_checkpoint"))]
    m["nn.checkpoint_bytes"] = float(np.mean(saves)) if saves else 0.0
    schedule = is_name("schedules.interpolate") | is_name("schedules.target_velocity")
    m["schedules.combine_ms"] = ms_per_step(in_step & schedule, dur)
    m["objectives.total_loss_self_ms"] = ms_per_step(in_step & is_name("objectives.total_loss"), self_t)

    # -- solvers and prediction in `eval` commands ---------------------------
    in_eval = root_is("cli.eval")
    solves = [int(i) for i in np.flatnonzero(is_name("solvers.solve"))]
    eval_solves = [i for i in solves if in_eval[i]]
    for spec, key in EVAL_SOLVERS.items():
        sel = np.zeros(n, dtype=bool)
        sel[[i for i in eval_solves if tr.attrs[i]["solver"] == spec]] = True
        m[f"solvers.solve_ms.{key}"] = mean_ms(sel)
        m[f"solvers.self_ms.{key}"] = mean_ms(sel, self_t)
        nfes = [tr.attrs[int(i)]["nfe"] for i in np.flatnonzero(sel)]
        m[f"solvers.nfe.{key}"] = float(np.mean(nfes)) if nfes else 0.0
    dopri = [tr.attrs[i] for i in eval_solves if tr.attrs[i]["kind"] == "dopri5"]
    tried = sum(s["accepted"] + s["rejected"] for s in dopri)
    m["solvers.accept_ratio.dopri5"] = sum(s["accepted"] for s in dopri) / tried if tried else 0.0
    m["solvers.solve_with_grad_ms"] = mean_ms(is_name("solvers.solve_with_grad"))
    for i in solves:
        s = tr.attrs[i]
        expected = (1 + 6 * (s["accepted"] + s["rejected"]) if s["kind"] == "dopri5"
                    else s["n_steps"] * (4 if s["kind"] == "rk4" else 1))
        if s["nfe"] != expected:
            violations.append(f"{s['solver']} solve: nfe {s['nfe']} != {expected}")

    # -- step timing and measured NFE per training step ------------------------
    m["model.train_step_ms.p50"] = float(np.percentile(gaps, 50)) if gaps.size else 0.0
    m["model.train_step_ms.p99"] = float(np.percentile(gaps, 99)) if gaps.size else 0.0
    m["model.train_step_samples"] = float(gaps.size)
    in_loop = loop >= 0
    h_per_loop = np.bincount(loop[in_loop & is_name("nn.forward.h")], minlength=n)
    adam_per_loop = np.bincount(loop[in_loop & is_name("nn.adam")], minlength=n)
    nfe_by_method: dict[str, list[float]] = {method: [] for method in EXPECTED_TRAIN_NFE}
    for lp in np.flatnonzero(adam_per_loop):
        method = _LOOPS[tr.names[name_l[lp]]]
        nfe = float(h_per_loop[lp] / adam_per_loop[lp])
        nfe_by_method[method].append(nfe)
        if nfe != EXPECTED_TRAIN_NFE[method]:
            violations.append(f"{method}: {nfe} dynamics evaluations per training step, "
                              f"expected {EXPECTED_TRAIN_NFE[method]}")
    for method, vals in nfe_by_method.items():
        m[f"model.train_nfe_per_step.{method}"] = float(np.mean(vals)) if vals else 0.0

    m["model.predict_ms"] = mean_ms(in_eval & is_name("model.predict_raw"))
    n_eval = int(is_name("cli.eval").sum())
    m["data.dataset_ms"] = float(dur[in_eval & prefixed("data.")].sum() * 1e3 / max(n_eval, 1))

    # -- diagnostics, per `diagnose` command -----------------------------------
    in_diag = root_is("cli.diagnose")
    n_diag = max(int(is_name("cli.diagnose").sum()), 1)
    for metric, span in (("knn_probe_ms", "diagnostics.knn_probe"),
                         ("nfe_sweep_ms", "diagnostics.nfe_sweep"),
                         ("disagreement_ms", "diagnostics.disagreement"),
                         ("cosine_profile_ms", "diagnostics.cosine_profile")):
        m[f"diagnostics.{metric}"] = float(dur[in_diag & is_name(span)].sum() * 1e3 / n_diag)
    peaks = [tr.attrs[int(i)]["peak_bytes"] for i in np.flatnonzero(is_name("diagnostics.knn_probe"))]
    m["diagnostics.knn_probe_peak_mb"] = max(peaks) / 1e6 if peaks else 0.0

    for cmd in COMMANDS:
        m[f"cli.self_ms.{cmd}"] = mean_ms(is_name(f"cli.{cmd}"), self_t)
    return m, violations
