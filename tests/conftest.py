"""Shared fixtures: one radio config and one service region cover most tests."""

import numpy as np
import pytest

import passloc.harness
from passloc.channel import RadioConfig
from passloc.geometry import ServiceRegion


@pytest.fixture(scope="session")
def radio():
    return RadioConfig(frequency=28e9)


@pytest.fixture(scope="session")
def region():
    return ServiceRegion(30.0, 30.0, 2.0)


@pytest.fixture(scope="session")
def half_wave(radio):
    return radio.wavelength / 2.0


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: end-to-end acceptance gate")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def one_process_sweep(monkeypatch):
    """Runs the test's sweeps serially in this process, where its wrappers count the calls."""
    monkeypatch.setattr(passloc.harness, "_usable_cpus", lambda: 1)
