import contextlib
import csv
import functools
import io
import json
import logging
import math
import operator
import shutil
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import latentflow.cli
import latentflow.model
from latentflow.cli import main, resolve_dataset
from latentflow.config import ConfigError, RunConfig, load_config, parse_config_text
from latentflow.data import DataError, apply_normalization
from latentflow.solvers import SolverError, SolverSpec

from conftest import run_cli

TOY_TRAIN_CFG = """\
# crossing toy task, full run
dataset = toy
iterations = 5000
batch_size = 4
lr = 1e-3
t_zero_prob = 0.1
label_noise_std = 0.1
enc_hidden = 32
dyn_hidden = 64
dyn_depth = 3
seed = 0
log_every = 100
solver = euler:1
"""


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """One full CLI training run on the crossing toy, shared by eval/diagnose tests."""
    root = tmp_path_factory.mktemp("toyrun")
    cfg_path = root / "toy.cfg"
    cfg_path.write_text(TOY_TRAIN_CFG)
    out_dir = root / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    return out_dir


def test_config_round_trip(tmp_path):
    cfg = parse_config_text("iterations = 12\nlr = 0.5\nschedule = concave\n")
    assert cfg.iterations == 12 and cfg.lr == 0.5 and cfg.schedule == "concave"


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("not_a_key = 1\n")


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config_text("iterations = soon\n")


def test_config_rejects_missing_csv(tmp_path):
    # a config checks values only; the file is checked when it is read
    cfg = RunConfig(dataset="csv:/nonexistent/file.csv", x_cols="a", y_cols="b")
    with pytest.raises(DataError, match="not found"):
        resolve_dataset(cfg)


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_non_utf8_config_file_exits_2_naming_it(tmp_path, caplog):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_bytes(b"# \xff\xfe\ndataset = toy\n")
    with caplog.at_level(logging.ERROR, logger="latentflow"):
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert [r.getMessage() for r in caplog.records] == [f"{cfg_path}: not valid UTF-8"]


def test_unknown_solver_string_exits_2(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("dataset = toy\nsolver = euler:0\n")
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("line", [
    "iterations = -1",
    "batch_size = 0",
    "eval_interval = 0",
    "schedule = bogus",
    "t_zero_prob = 2",
    "label_noise_std = -1",
    "label_noise_std = nan",
    "lr = nan",
    "lr = inf",
    "dataset = synth:5,0",
    "seed = -1",
    "solver = dopri5:nan",
    "task = classification",
    "num_classes = 3",
    pytest.param("dataset = csv:" + "a" * 300, id="csv path too long for the file system"),
])
def test_out_of_range_config_value_exits_2(tmp_path, line):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"dataset = toy\niterations = 2\nbatch_size = 4\n{line}\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()


_CONFIG_KEYS = sorted(RunConfig.__dataclass_fields__)
_CONFIG_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-10, max_value=10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "toy", "concave", "synth:5,0", "synth:4,2,-3", "synth:1,1",
                     "dopri5:inf", "euler:0", "rk4:2", "csv:" + "a" * 300, "csv:\x00"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES), max_size=6))
def test_config_parse_and_validate_raise_only_config_error(pairs):
    text = "\n".join(f"{key} = {value}" for key, value in pairs)
    try:
        parse_config_text(text)
    except ConfigError:
        pass


def test_zero_iterations_writes_empty_log(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("dataset = toy\niterations = 0\nbatch_size = 4\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "train_log.jsonl").read_text() == ""
    assert (out / "checkpoint.json").is_file()


@pytest.mark.parametrize("standardize", ["off", "auto"])  # auto skips the toy datasets
def test_validation_split_keeps_the_standardize_decision(tmp_path, standardize):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"dataset = toy_control\nval_split = 0.25\nstandardize = {standardize}\n"
                        "iterations = 2\nbatch_size = 4\neval_interval = 1\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dims"]["n_val"] == 1
    assert manifest["normalization"] == {"x_mean": [0.0, 0.0], "x_std": [1.0, 1.0],
                                         "y_mean": [0.0, 0.0], "y_std": [1.0, 1.0]}


@pytest.mark.parametrize("module", ["latentflow", "latentflow.cli"])
def test_module_entry_points_run_the_cli(tmp_path, module):
    helped = run_cli("--help", module=module, cwd=tmp_path)
    assert helped.returncode == 0, helped.stderr
    assert "diagnose" in helped.stdout
    missing = run_cli("diagnose", "--checkpoint", str(tmp_path / "absent"), module=module,
                      cwd=tmp_path)
    assert missing.returncode == 2, missing.stderr
    assert "no manifest.json" in missing.stderr


def test_failed_train_leaves_run_directory_as_it_was(tmp_path, monkeypatch):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("dataset = toy\niterations = 2\nbatch_size = 4\n")
    existing = tmp_path / "existing"
    assert main(["train", "--config", str(cfg_path), "--out", str(existing)]) == 0
    before = {p.name: p.read_bytes() for p in existing.iterdir()}

    def failing_metric(*_args):
        raise SolverError("NaN or infinite state encountered during integration")

    monkeypatch.setattr(latentflow.cli, "evaluate_metric", failing_metric)
    fresh = tmp_path / "fresh"
    assert main(["train", "--config", str(cfg_path), "--out", str(fresh)]) == 1
    assert not (fresh / "checkpoint.json").exists()
    assert not (fresh / "manifest.json").exists()
    assert main(["train", "--config", str(cfg_path), "--out", str(existing),
                 "--seed", "5"]) == 1
    assert {p.name: p.read_bytes() for p in existing.iterdir()} == before


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("line", ["enc_hidden = 100000000", "dyn_depth = 1000000000"])
def test_out_of_memory_exits_1_in_one_line_writing_nothing(tmp_path, command, line):
    # the child's address space is capped at 1 GiB, which neither model fits
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"dataset = toy\niterations = 2\nbatch_size = 4\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    done = run_cli(command, "--config", str(cfg_path), "--out", str(out))
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr and len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("ERROR Unable to allocate") and done.stdout == ""
    assert list(out.iterdir()) == []


def test_unknown_log_level_exits_2_naming_the_variable(monkeypatch):
    monkeypatch.setenv("LATENTFLOW_LOG", "error")
    done = run_cli("toy")
    assert done.returncode == 2 and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert "LATENTFLOW_LOG" in line and "debug|info|warning|quiet" in line and "'error'" in line


@pytest.mark.parametrize("value, logs_info", [("INFO", True), ("Warning", False)])
def test_log_level_is_read_in_any_letter_case(tmp_path, monkeypatch, value, logs_info):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("dataset = toy\niterations = 2\nbatch_size = 4\n")
    monkeypatch.setenv("LATENTFLOW_LOG", value)
    done = run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    assert ("INFO training finished" in done.stderr) == logs_info


def test_toy_command_prints_csv(capsys):
    assert main(["toy"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x0", "x1", "y0", "y1"]
    assert len(rows) == 5
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.all(values[:, 0] == -1.0) and np.all(values[:, 2] == 1.0)


def test_toy_control_variant(capsys):
    assert main(["toy", "--variant", "control"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    vals = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(vals[:, 1], vals[:, 3])  # identity pairing


def test_trained_run_layout(trained_run):
    assert (trained_run / "checkpoint.json").is_file()
    assert (trained_run / "manifest.json").is_file()
    log_lines = (trained_run / "train_log.jsonl").read_text().splitlines()
    assert log_lines
    entry = json.loads(log_lines[0])
    assert set(entry) == {"step", "lr", "flow_loss", "ae_loss", "val_metric", "train_nfe"}
    manifest = json.loads((trained_run / "manifest.json").read_text())
    assert manifest["dims"] == {"d_x": 2, "d_y": 2, "latent": 6, "n_train": 4, "n_val": 0}
    assert "timing" in manifest


def test_manifest_records_environment(trained_run):
    # blocked and whole-array solves agree bit for bit only on a given BLAS
    manifest = json.loads((trained_run / "manifest.json").read_text())
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "blas"}
    assert env["numpy"] == np.__version__
    assert env["python"] == ".".join(map(str, sys.version_info[:3]))


@pytest.mark.parametrize("show_config", [
    lambda **kw: (_ for _ in ()).throw(TypeError("unexpected keyword 'mode'")),  # numpy < 1.26
    lambda **kw: {"Build Dependencies": {}},  # a build that names no BLAS
])
def test_environment_without_a_blas_entry_reads_unknown(monkeypatch, show_config):
    monkeypatch.setattr(np, "show_config", show_config)
    env = latentflow.cli._environment()
    assert env["blas"] == "unknown"
    assert env["numpy"] == np.__version__


def test_eval_prints_json_only(trained_run, capsys):
    code = main(["eval", "--checkpoint", str(trained_run), "--solver", "euler:1"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out)  # whole stdout is one JSON object
    assert payload["nfe_mean"] == 1.0
    assert payload["metric"] < 0.1  # rmse on the fitted toy


def test_eval_adaptive_reports_fsal_minimum(trained_run, capsys):
    code = main(["eval", "--checkpoint", str(trained_run), "--solver", "dopri5:1e-3,1e-3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nfe_mean"] >= 7.0


def test_eval_dimension_mismatch_exits_1(trained_run, tmp_path):
    data = tmp_path / "wide.csv"
    data.write_text("a,b,c,t\n1,2,3,4\n5,6,7,8\n")
    manifest = json.loads((trained_run / "manifest.json").read_text())
    cfg = RunConfig(**dict(manifest["config"], dataset=f"csv:{data}", x_cols="a,b,c", y_cols="t"))
    patched = dict(manifest, config=cfg.to_dict())
    (trained_run / "manifest.json").write_text(json.dumps(patched, indent=2, sort_keys=True))
    try:
        code = main(["eval", "--checkpoint", str(trained_run)])
    finally:
        (trained_run / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    assert code == 1


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _truncate(path):
    path.write_text(path.read_text()[:200])


def _f64be_hex(value: float) -> str:
    """One value's 16 hex digits in the f64be-hex-v1 checkpoint format."""
    return struct.pack(">d", value).hex()


def _edit_first_values(edit):
    return lambda path: _edit_json(path, lambda payload: payload["params"][0].update(
        values=edit(payload["params"][0]["values"])))


def _edit_manifest(section, key, value):
    return lambda path: _edit_json(path, lambda m: m[section].update({key: value}))


def _resize_stat(key, n):
    return lambda path: _edit_json(
        path, lambda m: m["normalization"].update({key: [m["normalization"][key][0]] * n}))


_FIRST_PARAM = "f.enc.0.weight"
# case -> (file, how it is broken, the checkpoint parameter or manifest field the error names)
_MALFORMED = {
    "truncated manifest": ("manifest.json", _truncate, None),
    "manifest without normalization": (
        "manifest.json", lambda path: _edit_json(path, lambda m: m.pop("normalization")), None),
    "truncated checkpoint": ("checkpoint.json", _truncate, None),
    "checkpoint not UTF-8": (
        "checkpoint.json", lambda path: path.write_bytes(b"\xff" + path.read_bytes()), None),
    "checkpoint without a parameter": (
        "checkpoint.json", lambda path: _edit_json(path, lambda c: c["params"].pop(0)), _FIRST_PARAM),
    "mis-shaped parameter": (
        "checkpoint.json",
        lambda path: _edit_json(path, lambda c: c["params"][0]["shape"].reverse()), _FIRST_PARAM),
    "NaN parameter value": (
        "checkpoint.json", _edit_first_values(lambda v: v[:16] + _f64be_hex(math.nan) + v[32:]),
        _FIRST_PARAM),
    "-inf parameter value": (
        "checkpoint.json", _edit_first_values(lambda v: v[:48] + _f64be_hex(-math.inf) + v[64:]),
        _FIRST_PARAM),
    "values not hex": ("checkpoint.json", _edit_first_values(lambda v: "zz" + v[2:]), _FIRST_PARAM),
    "values of the wrong length": ("checkpoint.json", _edit_first_values(lambda v: v[:-2]),
                                   _FIRST_PARAM),
    "parameter record without shape": (
        "checkpoint.json", lambda path: _edit_json(path, lambda c: c["params"][0].pop("shape")),
        _FIRST_PARAM),
    "parameter record without name": (
        "checkpoint.json", lambda path: _edit_json(path, lambda c: c["params"][0].pop("name")), None),
    "format not a string": (
        "checkpoint.json", lambda path: _edit_json(path, lambda c: c.update(format=[])), None),
    "checkpoint without params": (
        "checkpoint.json", lambda path: _edit_json(path, lambda c: c.pop("params")), None),
    "params not a list": (
        "checkpoint.json", lambda path: _edit_json(path, lambda c: c.update(params=1)), None),
    "model_spec without task": (
        "manifest.json", lambda path: _edit_json(path, lambda m: m["model_spec"].pop("task")), None),
    "model_spec with an unknown key": (
        "manifest.json", lambda path: _edit_json(path, lambda m: m["model_spec"].update(bogus=1)),
        None),
    "config with an unknown key": (
        "manifest.json", lambda path: _edit_json(path, lambda m: m["config"].update(bogus=1)), None),
    "normalization without x_mean": (
        "manifest.json", lambda path: _edit_json(path, lambda m: m["normalization"].pop("x_mean")),
        None),
    "config with a string iterations": (
        "manifest.json", _edit_manifest("config", "iterations", "abc"), "iterations"),
    "model_spec with a string width": (
        "manifest.json", _edit_manifest("model_spec", "enc_hidden", "64"), "enc_hidden"),
    "model_spec with a zero width": (
        "manifest.json", _edit_manifest("model_spec", "enc_hidden", 0), "enc_hidden"),
    "model_spec with an unknown activation": (
        "manifest.json", _edit_manifest("model_spec", "dyn_activation", "bogus"), "dyn_activation"),
    "model_spec with an unknown schedule": (
        "manifest.json", _edit_manifest("model_spec", "schedule", "bogus"), "schedule"),
    "normalization with a string x_std": (
        "manifest.json", _edit_manifest("normalization", "x_std", "abc"), "x_std"),
    "x_mean of 5 values for 2 columns": ("manifest.json", _resize_stat("x_mean", 5), "x_mean"),
    "y_mean of 3 values for 2 columns": ("manifest.json", _resize_stat("y_mean", 3), "y_mean"),
    "x_mean of 1 value for 2 columns": ("manifest.json", _resize_stat("x_mean", 1), "x_mean"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_run_directory_exits_2_naming_the_file(trained_run, tmp_path, caplog, case):
    name, malform, param = _MALFORMED[case]
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    malform(run / name)
    with caplog.at_level(logging.ERROR, logger="latentflow"):
        assert main(["eval", "--checkpoint", str(run)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and len(errors[0].splitlines()) == 1
    assert str(run / name) in errors[0]
    if param is not None:
        assert (repr(param) if name == "checkpoint.json" else param) in errors[0]


def test_manifest_recording_the_fixed_activations_evals_the_same(trained_run, tmp_path, capsys):
    # manifests written while the activations were settings record relu and tanh
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    assert main(["eval", "--checkpoint", str(run)]) == 0
    expected = capsys.readouterr().out
    _edit_json(run / "manifest.json", lambda m: m["model_spec"].update(
        enc_activation="relu", dyn_activation="tanh"))
    assert main(["eval", "--checkpoint", str(run)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", [
    ["eval", "--solver", "euler:1"], ["eval", "--solver", "dopri5"], ["diagnose"]])
def test_non_finite_result_exits_1_and_writes_nothing(trained_run, tmp_path, capsys, caplog, command):
    # finite parameters whose outputs overflow: the metrics are infinite
    def huge_decoder_bias(checkpoint):
        rec = next(rec for rec in checkpoint["params"] if rec["name"] == "d.ldec.0.bias")
        rec["values"] = _f64be_hex(1e308) * (len(rec["values"]) // 16)

    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    _edit_json(run / "checkpoint.json", huge_decoder_bias)
    files = {path.name: path.read_bytes() for path in run.iterdir()}
    with caplog.at_level(logging.ERROR, logger="latentflow"):
        assert main([*command, "--checkpoint", str(run)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and len(errors[0].splitlines()) == 1 and "infinite" in errors[0]
    assert capsys.readouterr().out == ""
    assert {path.name: path.read_bytes() for path in run.iterdir()} == files


@pytest.fixture(scope="module")
def mutable_run(trained_run, tmp_path_factory):
    """A copy of the trained run whose files a test may rewrite, the bytes of
    its manifest and checkpoint, and the stdout of ``eval`` on it."""
    run = tmp_path_factory.mktemp("mutable") / "run"
    shutil.copytree(trained_run, run)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--checkpoint", str(run)]) == 0
    originals = {name: (run / name).read_bytes() for name in ("manifest.json", "checkpoint.json")}
    return run, originals, out.getvalue()


def _json_paths(node, path=()):
    """The path of every value inside a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


_OTHER_TYPES = [None, True, 0.5, "abc", [], {}]
_SPEC_SIZES = ("d_x", "d_y", "latent_dim", "enc_hidden", "enc_depth", "dyn_hidden", "dyn_depth")


def _mutate(data, payload: dict, how: str) -> None:
    """Apply one drawn mutation of kind ``how`` to the JSON ``payload`` in place."""
    if how == "bits":  # one value of one f64be-hex-v1 parameter
        rec = payload["params"][data.draw(st.integers(0, len(payload["params"]) - 1))]
        i = 16 * data.draw(st.integers(0, len(rec["values"]) // 16 - 1))
        bits = _f64be_hex(data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        rec["values"] = rec["values"][:i] + bits + rec["values"][i + 16:]
        return
    if how == "out-of-domain":  # a model_spec width or depth no model has, or an
        # activation key of an older manifest with a value no model had
        field = data.draw(st.sampled_from(_SPEC_SIZES + ("enc_activation", "dyn_activation")))
        payload["model_spec"][field] = data.draw(
            st.sampled_from([0, -1, 10**9, 2**62]) if field in _SPEC_SIZES
            else st.text(max_size=8).filter(lambda s: s not in ("relu", "tanh")))
        return
    at = functools.partial(functools.reduce, operator.getitem)
    paths = [p for p in _json_paths(payload) if how != "resize" or isinstance(at(p, payload), list)]
    # a top-level key first, then a path under it, so a checkpoint's format is
    # drawn as often as its params, whatever their size
    top = data.draw(st.sampled_from(sorted({p[0] for p in paths})))
    path = data.draw(st.sampled_from([p for p in paths if p[0] == top]))
    parent, key = at(path[:-1], payload), path[-1]
    if how == "drop":
        del parent[key]
    elif how == "retype":
        parent[key] = data.draw(st.sampled_from(
            [v for v in _OTHER_TYPES if type(v) is not type(parent[key])]))
    elif how == "resize":
        parent[key] = parent[key] + parent[key][-1:] if data.draw(st.booleans()) else parent[key][:-1]
    else:
        parent[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_manifest_exits_2_or_changes_nothing(mutable_run, capsys, caplog, data):
    # in the manifest or the checkpoint, drop a value, change its type, resize a
    # list or put in a non-finite number, set one parameter value's bits to a
    # non-finite one, or give the model spec a width, depth or legacy activation
    # out of its domain: eval either rejects the run directory in one line or
    # prints exactly what it did
    run, originals, expected = mutable_run
    name = data.draw(st.sampled_from(sorted(originals)))
    kinds = ["drop", "retype", "resize", "non-finite"]
    kinds.append("bits" if name == "checkpoint.json" else "out-of-domain")
    payload = json.loads(originals[name])
    _mutate(data, payload, data.draw(st.sampled_from(kinds)))
    (run / name).write_text(json.dumps(payload))
    capsys.readouterr()
    caplog.clear()
    try:
        with caplog.at_level(logging.ERROR, logger="latentflow"):
            code = main(["eval", "--checkpoint", str(run)])
    finally:
        for original, content in originals.items():
            (run / original).write_bytes(content)
    out = capsys.readouterr().out
    if code == 0:
        assert out == expected
    else:
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert code == 2 and out == ""
        assert len(errors) == 1 and len(errors[0].splitlines()) == 1


@pytest.mark.parametrize("field, value, param", [
    ("enc_hidden", 10**8, "f.enc.0.weight"), ("latent_dim", 10**8, "f.enc.1.weight"),
    ("dyn_depth", 10**6, "h.dyn.2.weight"), ("dyn_depth", 10**9, "h.dyn.2.weight"),
    ("dyn_depth", 2**62, "h.dyn.2.weight")])
def test_huge_manifest_width_or_depth_exits_2_before_allocating(trained_run, tmp_path, field,
                                                                value, param):
    # the checkpoint's first array that the manifest's value does not fit is
    # named before anything of that size is made; the child's memory is capped
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    _edit_manifest("model_spec", field, value)(run / "manifest.json")
    done = run_cli("eval", "--checkpoint", str(run))
    assert done.returncode == 2, done.stderr
    assert done.stdout == "" and len(done.stderr.splitlines()) == 1
    assert str(run / "checkpoint.json") in done.stderr and repr(param) in done.stderr


def test_checkpoint_with_a_layer_the_manifest_lacks_exits_2(tmp_path, caplog):
    # with dyn_hidden equal to the latent width, every dynamics layer has one
    # shape, so a manifest one layer shallower fits all but the last layer
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text("dataset = toy\nlatent_dim = 64\niterations = 2\nbatch_size = 4\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    _edit_manifest("model_spec", "dyn_depth", 2)(run / "manifest.json")
    with caplog.at_level(logging.ERROR, logger="latentflow"):
        assert main(["eval", "--checkpoint", str(run)]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and str(run / "checkpoint.json") in errors[0]
    assert repr("h.dyn.2.weight") in errors[0]


def test_eval_draws_no_random_numbers(trained_run, capsys, monkeypatch):
    # a loaded model is made of the checkpoint's arrays, with no throwaway init
    assert main(["eval", "--checkpoint", str(trained_run)]) == 0
    expected = capsys.readouterr().out

    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    assert main(["eval", "--checkpoint", str(trained_run)]) == 0
    assert capsys.readouterr().out == expected


def test_bad_solver_flag_does_not_blame_the_manifest(trained_run, caplog):
    with caplog.at_level(logging.ERROR, logger="latentflow"):
        assert main(["eval", "--checkpoint", str(trained_run), "--solver", "bogus"]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and "bogus" in errors[0] and "manifest.json" not in errors[0]


def test_eval_reads_another_csv_after_the_recorded_one_is_gone(tmp_path, capsys):
    rows = "a,b,t\n" + "".join(f"{i},{i % 3},{i * 0.5}\n" for i in range(8))
    recorded, other = tmp_path / "train.csv", tmp_path / "other.csv"
    recorded.write_text(rows)
    other.write_text(rows)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(f"dataset = csv:{recorded}\nx_cols = a,b\ny_cols = t\n"
                        "iterations = 2\nbatch_size = 4\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run)]) == 0
    recorded.unlink()
    assert main(["eval", "--checkpoint", str(run)]) == 2  # the recorded csv is not found
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run), "--dataset", f"csv:{other}"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"metric", "nfe_mean"}


def test_eval_reads_the_metric_and_nfe_of_the_diagnose_sweep(trained_run, tmp_path, capsys):
    # eval and diagnose infer through one path, so at each of these solvers
    # eval prints exactly its row of diagnose's NFE sweep
    assert main(["diagnose", "--checkpoint", str(trained_run), "--out", str(tmp_path)]) == 0
    sweep = {row["solver"]: row for row in json.loads(capsys.readouterr().out)["nfe_sweep"]}
    for solver, label in (("euler:1", "euler:1"), ("euler:100", "euler:100"),
                          ("dopri5", "dopri5:0.001,0.001")):
        assert main(["eval", "--checkpoint", str(trained_run), "--solver", solver]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"metric": sweep[label]["metric"], "nfe_mean": float(sweep[label]["nfe"])}


@pytest.fixture(scope="module")
def blocked_run(tmp_path_factory):
    """A short synth run on 1,100 rows, which solve and embed split in two blocks."""
    root = tmp_path_factory.mktemp("blockedrun")
    cfg_path = root / "synth.cfg"
    cfg_path.write_text("dataset = synth:1100,3,4\niterations = 20\nbatch_size = 256\n"
                        "lr = 2e-3\nenc_hidden = 16\ndyn_hidden = 16\nseed = 4\n")
    assert main(["train", "--config", str(cfg_path), "--out", str(root / "run")]) == 0
    return root / "run"


_SOLVER_SPECS = st.one_of(
    st.builds("euler:{}".format, st.integers(1, 12)),
    st.builds("rk4:{}".format, st.integers(1, 4)),
    st.builds("dopri5:{},{}".format, st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4]),
              st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5])),
)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(solver=_SOLVER_SPECS)
def test_eval_prints_the_metric_and_nfe_of_flow_of_embed(blocked_run, capsys, solver):
    # eval at any solver prints exactly the metric and NFE of
    # flow(embed(x), solver) on the run's normalized dataset
    manifest = json.loads((blocked_run / "manifest.json").read_text())
    model = latentflow.model.load_model_params(
        blocked_run / "checkpoint.json", latentflow.model.ModelSpec.from_dict(manifest["model_spec"]))
    norm = manifest["normalization"]
    ds = apply_normalization(resolve_dataset(RunConfig(**manifest["config"])),
                             *(norm[k] for k in ("x_mean", "x_std", "y_mean", "y_std")))
    out, res = model.flow(model.embed(ds.x), SolverSpec.parse(solver))
    expected = {"metric": latentflow.model.output_metric(model.task, ds, out),
                "nfe_mean": float(res.nfe)}
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(blocked_run), "--solver", solver]) == 0
    assert capsys.readouterr().out == latentflow.cli._json_line(expected) + "\n"


def test_diagnose_writes_report_and_prints_json(trained_run, tmp_path, capsys):
    out_dir = tmp_path / "diag"
    code = main(["diagnose", "--checkpoint", str(trained_run), "--out", str(out_dir)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["disagreement_fraction"] < 0.01
    for name in ("report.json", "cosine_profile.csv", "nfe_sweep.csv"):
        assert (out_dir / name).is_file()
    profile_rows = (out_dir / "cosine_profile.csv").read_text().splitlines()
    assert len(profile_rows) == 1 + 21  # header plus the default grid


@pytest.mark.parametrize("command, flag", [
    ("eval", "--config"),
    ("eval", "--out"),
    ("diagnose", "--config"),
    ("diagnose", "--solver"),
    ("compare", "--solver"),
])
def test_unread_flags_are_rejected(trained_run, tmp_path, command, flag):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("dataset = toy\niterations = 2\nbatch_size = 4\n")
    values = {"--config": str(cfg_path), "--out": str(tmp_path / "o"), "--solver": "euler:2"}
    if command == "compare":
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "cmp")]
    else:
        argv = [command, "--checkpoint", str(trained_run)]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, values[flag]])
    assert exc.value.code == 2


def test_compare_on_crossing_toy(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(
        "dataset = toy\niterations = 5000\nbatch_size = 4\nlr = 1e-3\n"
        "node_steps = 8\nnode_lr = 3e-3\nenc_hidden = 32\ndyn_hidden = 64\n"
        "dyn_depth = 3\nlog_every = 100\n"
    )
    out = tmp_path / "cmp"
    code = main(["compare", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    table = json.loads(captured.out)
    rows = {r["method"]: r for r in table["rows"]}
    assert rows["latent_fm"]["train_nfe_per_step"] == 1.0
    assert rows["direct_fm"]["train_nfe_per_step"] == 1.0
    assert rows["node_euler8"]["train_nfe_per_step"] == 8.0
    # solved trajectories: the latent model fits, the data-space control breaks
    assert rows["latent_fm"]["metric_euler1"] < 1e-2
    assert rows["direct_fm"]["metric_dopri5"] > 0.1
    assert rows["node_euler8"]["metric_euler8"] < 1e-2
    assert "latent_fm" in captured.err  # human-readable table on stderr
    assert (out / "comparison.json").is_file()


def test_seed_override_changes_manifest(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text("dataset = toy\niterations = 1\nbatch_size = 4\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg_path), "--out", str(out), "--seed", "77"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 77
    assert manifest["config"]["seed"] == 77
