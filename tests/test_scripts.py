"""Smoke runs of the experiment scripts and configs at a few training steps."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from latentflow.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _header_commands(text: str) -> list[list[str]]:
    """The ``latentflow ...`` command lines of a config's header comment."""
    return [shlex.split(m) for m in re.findall(r"(?m)^#\s+latentflow (.+)$", text)]


@pytest.mark.parametrize("cfg_path", sorted(SCRIPTS.glob("*.cfg")), ids=lambda p: p.name)
def test_committed_config_runs_as_its_header_says(tmp_path, cfg_path):
    # each committed config, at 3 training steps, through the commands its
    # header names, with its paths under runs/ moved into tmp_path
    text, n = re.subn(r"(?m)^iterations = \d+$", "iterations = 3", cfg_path.read_text())
    assert n == 1
    cfg = tmp_path / cfg_path.name
    cfg.write_text(text)
    commands = _header_commands(text)
    assert commands
    for args in commands:
        args = [str(cfg) if a == f"scripts/{cfg_path.name}"
                else str(tmp_path / a) if a.startswith("runs/") else a for a in args]
        assert main(args) == 0, args
    run = tmp_path / "runs" / cfg_path.stem
    if commands[-1][0] == "compare":
        table = json.loads((run / "comparison.json").read_text())
        assert [row["method"] for row in table["rows"]] == ["latent_fm", "direct_fm", "node_euler8"]
        assert [row["train_nfe_per_step"] for row in table["rows"]] == [1.0, 1.0, 8.0]
    else:
        assert [args[0] for args in commands] == ["train", "diagnose"]
        lines = (run / "nfe_sweep.csv").read_text().splitlines()
        assert lines[0] == "nfe,metric" and len(lines) == 1 + 7  # six Euler step counts and dopri5


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


def test_benchmark_selftest():
    # The selftest patches the benchmark's named sites (a renamed one raises),
    # checks the train NFE invariants and emits every declared metric.
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
