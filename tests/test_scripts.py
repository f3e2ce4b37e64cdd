"""Smoke runs of the experiment scripts and configs at a few training steps."""

import json
import re
import subprocess
import sys
from pathlib import Path

from latentflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)


def test_toy_compare_script(tmp_path):
    # the committed compare config, at 3 training steps
    text, n = re.subn(r"(?m)^iterations = \d+$", "iterations = 3",
                      (SCRIPTS / "toy_compare.cfg").read_text())
    assert n == 1
    cfg = tmp_path / "toy_compare.cfg"
    cfg.write_text(text)
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    table = json.loads((tmp_path / "comparison.json").read_text())
    assert [row["method"] for row in table["rows"]] == ["latent_fm", "direct_fm", "node_euler8"]
    assert [row["train_nfe_per_step"] for row in table["rows"]] == [1.0, 1.0, 8.0]


def test_readme_library_sketch():
    # the README's library sketch, at 5 training steps
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    code, n = re.subn(r"iterations=5000\b", "iterations=5", block)
    assert n == 1
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["res"].nfe == 1
    assert namespace["last"]["step"] == 4


def test_synth_nfe_sweep_script(tmp_path):
    proc = _run("synth_nfe_sweep.py", "--out", str(tmp_path), "--iterations", "3", "--n", "32")
    assert proc.returncode == 0, proc.stderr
    for kind in ("linear", "convex", "concave"):
        lines = (tmp_path / f"sweep_{kind}.csv").read_text().splitlines()
        assert lines[0] == "solver,nfe,rmse"
        assert len(lines) == 1 + 9  # eight Euler step counts and dopri5


def test_benchmark_selftest():
    # The selftest patches the benchmark's named sites (a renamed one raises),
    # checks the train NFE invariants and emits every declared metric.
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
