"""The names the benchmark tracer rebinds must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _rebind():
    spec = importlib.util.spec_from_file_location("passloc_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.REBIND


@pytest.mark.parametrize("module_name, attr, span", _rebind())
def test_traced_name_resolves_to_a_callable(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} (span {span})"
