"""Smoke test: every quick demo and the README quick start run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 07 is a long sweep whose code path the run_sweep tests already cover
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-6]_*.py"))


def test_the_six_quick_demos_are_found():
    assert len(DEMOS) == 6


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    _run_python([str(ROOT / "demos" / name)])


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "run_omp_gcl" in code
    assert _run_python(["-c", code]).stdout.strip()
