"""Smoke test: every quick demo runs to completion as a script."""

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


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
