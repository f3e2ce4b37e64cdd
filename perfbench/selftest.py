"""Fast self-test of the benchmark: every metric named in BENCHMARK.json is emitted.

Runs each workload once untraced and once traced at a tiny size (one cycle,
a few training steps, small datasets) and checks that the result object has
the contract's keys and a finite value with the declared unit for every
end-to-end and per-layer metric. Quality thresholds are dropped, because a
few training steps cannot meet them. Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


def _tiny_config(cfg: dict) -> dict:
    out = dict(cfg, iterations=min(cfg["iterations"], 4))
    out["dataset"] = re.sub(r"synth:\d+", "synth:64", cfg["dataset"])
    return out


def tiny(wl: bench.Workload) -> bench.Workload:
    diag = wl.diagnose_dataset and re.sub(r"synth:\d+", "synth:32", wl.diagnose_dataset)
    return dataclasses.replace(
        wl, setup=_tiny_config(wl.setup), train=_tiny_config(wl.train),
        compare=_tiny_config(wl.compare), eval_reps={s: 1 for s in wl.eval_reps},
        diagnose_dataset=diag, max_mse_euler1=None, max_train_rmse=None)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS), "workload lists differ"
    bench.prepare()
    problems = []
    for wl in bench.WORKLOADS.values():
        for trace in (0, 1):
            result, run = bench.run_workload(tiny(wl), seed=0, seconds=0, trace=bool(trace))
            where = f"{wl.name} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{where}: failed operations {run.failures}")
            metrics = result["metrics"]
            if set(metrics) != set(declared[trace]):
                problems.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(declared[trace]))}")
            for name, unit in declared[trace].items():
                m = metrics.get(name, {})
                if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
                    problems.append(f"{where}: {name} = {m}")
            print(f"{where}: {len(metrics)} metrics, {result['attempted']} operations")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
