"""Fisher information, bound variants, diversity score, and calibration."""

import dataclasses

import numpy as np
import pytest

import passloc.crlb as crlb_mod
import passloc.harness as harness_mod
from passloc.crlb import (
    bearing_geometry,
    calibrate_bearing_sigma,
    crlb_bound,
    crlb_heatmap,
    diversity_score,
    fisher_information,
)
from passloc.estimator import solve_position_ls
from passloc.geometry import SingularGeometryError
from passloc.harness import ExperimentConfig

CORNERS = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]])


def test_fisher_orthogonal_equal_range():
    refs = np.array([[5.0, 0.0], [0.0, 5.0]])
    j = fisher_information([0.0, 0.0], refs, sigma2=0.01)
    assert np.allclose(j, np.eye(2) / (0.01 * 25.0), rtol=1e-12)


def test_fisher_parallel_bearings_singular():
    refs = np.array([[0.0, 1.0], [0.0, 2.0]])
    j = fisher_information([0.0, 0.0], refs, sigma2=0.01)
    assert np.linalg.det(j) == pytest.approx(0.0, abs=1e-12)
    rep = crlb_bound([0.0, 0.0], refs, 0.01)
    assert rep.unbounded
    assert np.isinf(rep.crlb).all()
    # information vanishes along the common bearing axis
    assert abs(rep.null_direction @ np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_fisher_matches_numerical_bearing_jacobian(rng):
    """J = (1/sigma2) * sum grad(theta_m) grad(theta_m)^T with numerical grads."""
    h = 1e-6
    for _ in range(10):
        refs = rng.uniform(0, 30, size=(4, 2))
        q = rng.uniform(5, 25, size=2)
        sigma2 = 10 ** rng.uniform(-5, -2)

        def angles(p):
            d = p[None, :] - refs
            return np.arctan2(d[:, 1], d[:, 0])

        gx = (angles(q + [h, 0]) - angles(q - [h, 0])) / (2 * h)
        gy = (angles(q + [0, h]) - angles(q - [0, h])) / (2 * h)
        grads = np.column_stack([gx, gy])
        want = sum(np.outer(g, g) for g in grads) / sigma2
        got = fisher_information(q, refs, sigma2)
        assert np.allclose(got, want, rtol=1e-4)


def test_fisher_validation():
    with pytest.raises(ValueError):
        fisher_information([0.0, 0.0], CORNERS, sigma2=0.0)
    with pytest.raises(SingularGeometryError):
        fisher_information([0.0, 0.0], CORNERS, sigma2=0.01)


def test_bound_uses_the_fisher_information_and_its_checks(region):
    q = [12.0, 7.0]
    assert np.array_equal(crlb_bound(q, CORNERS, 1e-4).fim, fisher_information(q, CORNERS, 1e-4))
    for sigma2 in (0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match="variance must be positive"):
            crlb_bound(q, CORNERS, sigma2)
    with pytest.raises(ValueError, match="at least one point"):
        crlb_heatmap(region, CORNERS, 1e-4, grid_n=0)


def test_paper_bound_equals_exact_at_equal_ranges():
    target = np.array([15.0, 15.0])
    ang = np.deg2rad([10.0, 95.0, 200.0, 300.0])
    refs = target + 7.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    rep = crlb_bound(target, refs, sigma2=1e-4, mode="paper")
    assert rep.representative_range == pytest.approx(7.0, rel=1e-12)
    assert np.allclose(rep.crlb_paper, rep.crlb_exact, rtol=1e-10)


def test_bound_scales_linearly_with_noise(rng):
    refs = rng.uniform(0, 30, size=(4, 2))
    q = rng.uniform(5, 25, size=2)
    a = crlb_bound(q, refs, sigma2=1e-4)
    b = crlb_bound(q, refs, sigma2=2e-4)
    assert np.allclose(b.crlb, 2.0 * a.crlb, rtol=1e-12)
    assert np.allclose(b.fim, 0.5 * a.fim, rtol=1e-12)


def test_bound_rotation_invariant_summaries(rng):
    for _ in range(10):
        refs = rng.uniform(0, 30, size=(5, 2))
        q = rng.uniform(5, 25, size=2)
        ang = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        a = crlb_bound(q, refs, 1e-4)
        b = crlb_bound(rot @ q, refs @ rot.T, 1e-4)
        assert b.trace == pytest.approx(a.trace, rel=1e-9)
        assert b.lambda_min == pytest.approx(a.lambda_min, rel=1e-9)


def test_diversity_score_definition_and_monotonicity(rng):
    for _ in range(20):
        refs = rng.uniform(0, 30, size=(3, 2))
        q = rng.uniform(5, 25, size=2)
        _, _, projectors = bearing_geometry(q, refs)
        lam = np.linalg.eigvalsh(projectors.sum(axis=0))[0]
        assert diversity_score(q, refs) == pytest.approx(lam, abs=1e-12)
        # a fourth bearing adds a PSD term: lambda_min cannot drop
        more = np.vstack([refs, rng.uniform(0, 30, size=(1, 2))])
        assert diversity_score(q, more) >= diversity_score(q, refs) - 1e-12


def test_bound_consistent_with_monte_carlo():
    """Unweighted fusion of angle-noised bearings lands near the bound at
    comparable ranges (ratio within [0.95, 1.6] at this sample size)."""
    target = np.array([21.0, 9.5])
    sigma = 0.01
    rep = crlb_bound(target, CORNERS, sigma**2)
    delta = target[None, :] - CORNERS
    theta = np.arctan2(delta[:, 1], delta[:, 0])
    rng = np.random.default_rng(7)
    sq = 0.0
    trials = 3000
    for _ in range(trials):
        noisy = theta + sigma * rng.standard_normal(4)
        fix, _, _ = solve_position_ls(
            CORNERS, np.cos(noisy), np.sign(np.sin(noisy)), epsilon=1e-12
        )
        sq += float(np.sum((fix - target) ** 2))
    ratio = (sq / trials) / rep.trace
    assert 0.95 < ratio < 1.6, ratio


def test_heatmap_grid_and_margins(region):
    rows = crlb_heatmap(region, CORNERS, 1e-4, grid_n=8)
    assert rows.shape == (64, 4)
    assert rows[:, 0].min() == 0.5 and rows[:, 0].max() == 29.5
    assert np.all(np.isfinite(rows[:, 2]))
    assert np.all(rows[:, 2] > 0)
    assert np.all(rows[:, 3] > 0)


def test_heatmap_marks_singular_rows_infinite(region):
    # two references on the mid line: every grid point on that line sees
    # parallel bearings
    refs = np.array([[0.0, 15.0], [30.0, 15.0]])
    rows = crlb_heatmap(region, refs, 1e-4, grid_n=9)
    on_line = rows[np.abs(rows[:, 1] - 15.0) < 1e-12]
    assert len(on_line) > 0
    assert np.all(np.isinf(on_line[:, 2]))
    assert np.all(np.isfinite(rows[np.abs(rows[:, 1] - 15.0) > 1e-9][:, 2]))


def test_calibration_tracks_noise_level():
    cfg = ExperimentConfig(m=2, n=16, g_theta=512)
    clean, info = calibrate_bearing_sigma(cfg, "mw", None, trials=3)
    noisy, _ = calibrate_bearing_sigma(cfg, "mw", 0.0, trials=3)
    assert 0.0 < clean < 0.02  # grid quantization only
    assert noisy > clean
    assert info["samples"] == 6
    assert info["provenance"] == "calibrated"


def test_calibration_runs_the_sweeps_trials(monkeypatch):
    """Trial t of the calibration is the sweep's trial t, scatterers removed."""
    cfg = ExperimentConfig(m=2, n=16, g_theta=64, l=2, seed=7, slots_per_subarray=16)
    seen = []

    def spy(*args):
        seen.append(args)
        return harness_mod.simulate_trial(*args)

    monkeypatch.setattr(crlb_mod, "simulate_trial", spy)
    calibrate_bearing_sigma(cfg, "sw", 10.0, trials=2)
    assert [a[1:] for a in seen] == [("sw", 10.0, 0, 0), ("sw", 10.0, 0, 1)]
    assert all(a[0] == dataclasses.replace(cfg, l=0) for a in seen)
    with pytest.raises(ValueError, match="planar"):
        calibrate_bearing_sigma(dataclasses.replace(cfg, mode="3d", m=3), "mw", 10.0, trials=1)
