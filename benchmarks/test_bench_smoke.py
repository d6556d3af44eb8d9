"""Smoke test of the benchmark itself, at a tiny trial count.

    python3 -m pytest benchmarks/test_bench_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# printed with every untraced run but not gated: see run.py
REPORTED = {"trial_ms_samples": "count", "rmse_m": "m", "median_err_m": "m",
            "nmse_db": "dB", "failed_frac": "ratio"}


def run_bench(cwd, workload, trace, seconds="0.5"):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in report if line.startswith("  ")}
    expected = dict(declared, **({} if trace else REPORTED))
    assert {k: printed.get(k) for k in expected} == expected


def test_tree_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        shutil.copy(f, tmp_path / "benchmarks")
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
