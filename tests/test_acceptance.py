"""End-to-end accept checks, one per shipped guarantee.

Each test is a release gate: closed-form fusion against exhaustive grid
search, projector algebra, mirror-scene behavior of the two structures,
Monte-Carlo variance against the Fisher bound, placement-diversity
orderings, noiseless and default-noise accuracy, scenario orderings at
high SNR, exact-input height recovery, and sweep determinism. Stated
runtime budgets are asserted so a regression that blows up cost fails
loudly rather than silently slowing CI.
"""

import time

import numpy as np
import pytest
from scipy.stats import binomtest

from passloc.channel import RadioConfig, path_vector
from passloc.crlb import crlb_bound, diversity_score
from passloc.estimator import projection_matrix, solve_position_ls, solve_position_3d
from passloc.geometry import ServiceRegion, build_mw_layout, build_sw_layout
from passloc.harness import ExperimentConfig, run_sweep

pytestmark = pytest.mark.acceptance

REGION = ServiceRegion(30.0, 30.0, 2.0)
RADIO = RadioConfig(28e9)
HALF_WAVE = RADIO.wavelength / 2.0


def _refs_xy(layout):
    return np.array([s.reference_position[:2] for s in layout.subarrays])


# -- 1. closed-form fusion vs millimeter grid search ----------------------

def _lattice_mm(lo, hi, step, cap=30000):
    lo = max(0, int(lo))
    hi = min(cap, int(hi))
    start = -(-lo // step) * step  # ceil onto the step lattice
    return np.arange(start, hi + 1, step)


def _grid_cost(refs, u, xs, ys):
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    total = np.zeros_like(gx)
    for (vx, vy), (ux, uy) in zip(refs, u):
        dx = gx - vx
        dy = gy - vy
        p = ux * dx + uy * dy
        total += dx * dx + dy * dy - p * p
    return total


def _grid_argmin(refs, varphis, signs):
    """Exhaustive minimizer of the projection objective on the 1 mm lattice.

    Coarse-to-fine passes (100 mm, 10 mm, 1 mm), every stage snapped to the
    global millimeter lattice so the last pass is a restriction of the full
    1 mm grid. The objective is a strictly convex quadratic for the
    conditioning the instances are screened to, so a window around the
    previous stage argmin contains the basin; an argmin landing on a window
    edge would mean the window missed it and fails the run.
    """
    u = np.stack([varphis, signs * np.sqrt(1.0 - varphis**2)], axis=1)
    center = None
    for step, span in ((100, None), (10, 800), (1, 80)):
        if span is None:
            xs = ys = _lattice_mm(0, 30000, step)
        else:
            xs = _lattice_mm(center[0] - span, center[0] + span, step)
            ys = _lattice_mm(center[1] - span, center[1] + span, step)
        cost = _grid_cost(refs, u, xs / 1000.0, ys / 1000.0)
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        if span is not None:
            assert 0 < i < len(xs) - 1 and 0 < j < len(ys) - 1, "window missed the basin"
        center = (int(xs[i]), int(ys[j]))
    return np.array(center) / 1000.0


def test_c01_closed_form_fusion_matches_grid_minimizer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    done = 0
    attempts = 0
    while done < 1000:
        attempts += 1
        assert attempts < 20000, "instance screening rejected too many draws"
        m = int(rng.integers(2, 7))
        target = rng.uniform(2.0, 28.0, 2)
        refs = rng.uniform(0.0, 30.0, (m, 2))
        if np.min(np.linalg.norm(refs - target, axis=1)) < 1.0:
            continue
        ang = np.arctan2(target[1] - refs[:, 1], target[0] - refs[:, 0])
        varphis = np.clip(np.cos(ang) + rng.uniform(-0.2, 0.2, m), -0.999, 0.999)
        signs = np.where(np.sin(ang) >= 0.0, 1.0, -1.0)
        # tiny epsilon so the regularizer cannot bias the comparison
        q, _, lam_min = solve_position_ls(refs, varphis, signs, epsilon=1e-12)
        if lam_min < 0.05:  # screen out near-parallel bearing sets
            continue
        if not (0.002 <= q[0] <= 29.998 and 0.002 <= q[1] <= 29.998):
            continue  # grid covers the region only; keep the minimizer interior
        gap = float(np.linalg.norm(q - _grid_argmin(refs, varphis, signs)))
        worst = max(worst, gap)
        done += 1
    dt = time.perf_counter() - t0
    print(f"[c01] worst |closed-form - grid argmin| = {worst * 1e3:.3f} mm "
          f"over 1000 instances in {dt:.1f} s")
    assert worst <= 1.5e-3  # within one 1 mm grid cell (diagonal)
    assert dt < 60.0


# -- 2. projector algebra --------------------------------------------------

def test_c02_projector_algebra_suite():
    rng = np.random.default_rng(2)
    varphis = rng.uniform(-1.0, 1.0, 10_000)
    signs = np.where(rng.uniform(size=10_000) < 0.5, -1.0, 1.0)
    worst = 0.0
    for varphi, sign in zip(varphis, signs):
        p = projection_matrix(varphi, sign)
        u = np.array([varphi, sign * np.sqrt(1.0 - varphi**2)])
        worst = max(
            worst,
            float(np.abs(p @ p - p).max()),
            float(np.abs(p @ u).max()),
            float(np.abs(np.linalg.eigvalsh(p) - [0.0, 1.0]).max()),
        )
    print(f"[c02] max projector deviation over 10^4 draws = {worst:.3e}")
    assert worst < 1e-10


# -- 3. mirror scenes: one guide line is blind, spread guides are not -----

def test_c03_mirror_scene_channels_sw_equal_mw_distinct():
    sw = build_sw_layout(REGION, 3, 32, HALF_WAVE)
    mw = build_mw_layout(REGION, 3, 32, HALF_WAVE)
    rng = np.random.default_rng(7)

    def concat(layout, q):
        return np.concatenate(
            [path_vector(s.pa_positions, q, RADIO, "los") for s in layout.subarrays]
        )

    worst_sw = 0.0
    least_mw = np.inf
    for _ in range(100):
        x = rng.uniform(1.0, 29.0)
        k = int(rng.integers(64, 1857))
        if k == 960:  # the guide line maps to itself; mirror would be a no-op
            k += 1
        y = k / 64.0  # dyadic lattice: the reflected offset is the exact negation
        q = np.array([x, y, 0.0])
        qm = np.array([x, 30.0 - y, 0.0])
        h_sw, h_swm = concat(sw, q), concat(sw, qm)
        h_mw, h_mwm = concat(mw, q), concat(mw, qm)
        worst_sw = max(worst_sw, float(np.max(np.abs(h_sw - h_swm) / np.abs(h_sw))))
        least_mw = min(least_mw, float(np.max(np.abs(h_mw - h_mwm) / np.abs(h_mw))))
    print(f"[c03] single-guide mirror rel diff <= {worst_sw:.3e}; "
          f"multi-guide mirror rel diff >= {least_mw:.3e}")
    assert worst_sw <= 1e-12
    assert least_mw > 1e-3


# -- 4. Monte-Carlo variance sits on the Fisher bound ----------------------

def test_c04_monte_carlo_variance_attains_bound():
    t0 = time.perf_counter()
    refs = _refs_xy(build_mw_layout(REGION, 4, 32, HALF_WAVE))
    q = np.array([21.0, 9.5])
    sigma = 0.01
    report = crlb_bound(q, refs, sigma**2, mode="exact")
    bound = float(np.trace(report.crlb_exact))

    rng = np.random.default_rng(42)
    ang = np.arctan2(q[1] - refs[:, 1], q[0] - refs[:, 0])
    trials = 10_000
    fixes = np.empty((trials, 2))
    for t in range(trials):
        th = ang + sigma * rng.standard_normal(refs.shape[0])
        fixes[t], _, _ = solve_position_ls(
            refs, np.cos(th), np.sign(np.sin(th)), epsilon=1e-12
        )
    cov_trace = float(np.trace(np.cov(fixes.T)))
    mse = float(np.mean(np.sum((fixes - q) ** 2, axis=1)))
    ratio = cov_trace / bound
    dt = time.perf_counter() - t0
    print(f"[c04] cov-trace/bound = {ratio:.3f} (mse ratio {mse / bound:.3f}) "
          f"over {trials} trials in {dt:.1f} s")
    assert 1.0 <= ratio <= 1.5
    assert dt < 120.0


# -- 5. corner anchors beat a single guide line everywhere ----------------

def test_c05_corner_vs_collinear_diversity_ordering():
    refs_corner = _refs_xy(build_mw_layout(REGION, 4, 32, HALF_WAVE))
    refs_line = _refs_xy(build_sw_layout(REGION, 2, 32, HALF_WAVE))
    pts = np.linspace(1.0, 29.0, 15)
    sigma2 = 1e-4
    min_gap = np.inf
    for x in pts:
        for y in pts:
            q = (x, y)
            div_c = diversity_score(q, refs_corner)
            div_l = diversity_score(q, refs_line)
            assert div_c > div_l, f"diversity ordering fails at {q}"
            tr_c = float(np.trace(crlb_bound(q, refs_corner, sigma2).crlb))
            tr_l = float(np.trace(crlb_bound(q, refs_line, sigma2).crlb))
            assert tr_c < tr_l, f"bound-trace ordering fails at {q}"
            min_gap = min(min_gap, div_c - div_l)
    print(f"[c05] orderings hold at all 225 grid points; "
          f"smallest diversity gap = {min_gap:.4f}")


# -- 6. noiseless end to end ------------------------------------------------

def test_c06_noiseless_end_to_end_accuracy():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        scenarios=("mw",), m=3, l=0, mode="2d", snr_db=(float("inf"),),
        trials=200, seed=0, g_theta=2048, iters=3,
    )
    res = run_sweep(cfg)
    median = res.rmse_rows[0]["median_m"]
    nmse_db = res.nmse_rows[0]["nmse_db"]
    dt = time.perf_counter() - t0
    print(f"[c06] noiseless median error = {median * 1e3:.3f} mm, "
          f"channel NMSE = {nmse_db:.1f} dB over 200 trials in {dt:.1f} s")
    assert median < 0.02
    assert nmse_db < -30.0
    assert dt < 300.0


# -- 7. accuracy class at 25 dB with defaults -------------------------------

def test_c07_default_accuracy_at_25db_2d_and_3d():
    t0 = time.perf_counter()
    cfg_2d = ExperimentConfig(
        scenarios=("mw",), m=3, mode="2d", snr_db=(25.0,), trials=500, seed=0,
    )
    median_2d = run_sweep(cfg_2d).rmse_rows[0]["median_m"]

    cfg_3d = ExperimentConfig(
        scenarios=("mw",), m=3, mode="3d", h_pa=6.0, h_range=(0.0, 6.0),
        snr_db=(25.0,), trials=500, seed=0,
    )
    median_3d = run_sweep(cfg_3d).rmse_rows[0]["median_m"]
    dt = time.perf_counter() - t0
    print(f"[c07] 25 dB medians: 2d = {median_2d * 100:.2f} cm, "
          f"3d = {median_3d * 100:.2f} cm over 500 trials each in {dt:.1f} s")
    assert median_2d < 0.10
    assert median_3d < 1.0


# -- 8. scenario orderings at high SNR --------------------------------------

def test_c08_scenario_error_orderings_high_snr():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        scenarios=("mw", "sw", "sw2", "nf"), m=3,
        snr_db=(20.0, 22.5, 25.0), trials=200, seed=0,
    )
    res = run_sweep(cfg)
    recs = {(r.scenario, r.snr_db, r.trial): r for r in res.records}
    rmse = {(r["scenario"], r["snr_db"]): r["rmse_m"] for r in res.rmse_rows}
    nmse = {(r["scenario"], r["snr_db"]): r["nmse_db"] for r in res.nmse_rows}

    worst_p = 0.0
    for snr in cfg.snr_db:
        assert rmse[("mw", snr)] < rmse[("sw2", snr)] < rmse[("nf", snr)], (
            f"aggregate error ordering fails at {snr} dB"
        )
        # paired per-trial sign tests: scenes are shared across scenarios
        for a, b in (("mw", "sw2"), ("sw2", "nf")):
            pairs = [
                (recs[(a, snr, t)], recs[(b, snr, t)])
                for t in range(cfg.trials)
                if not (recs[(a, snr, t)].failed or recs[(b, snr, t)].failed)
            ]
            wins = sum(1 for u, v in pairs if u.position_error < v.position_error)
            ties = sum(1 for u, v in pairs if u.position_error == v.position_error)
            p = binomtest(wins, len(pairs) - ties, alternative="greater").pvalue
            worst_p = max(worst_p, p)
            assert p < 0.05, f"{a} vs {b} not significant at {snr} dB (p={p:.3g})"
        assert nmse[("mw", snr)] < nmse[("sw", snr)], (
            f"channel-error ordering mw < sw fails at {snr} dB"
        )
        # two collinear subarrays reconstruct worse than one dense subarray
        assert nmse[("sw2", snr)] > nmse[("nf", snr)], (
            f"channel-error crossover sw2 > nf fails at {snr} dB"
        )
    dt = time.perf_counter() - t0
    print(f"[c08] orderings hold at 20/22.5/25 dB; worst sign-test p = "
          f"{worst_p:.3g}; {dt:.0f} s")
    assert dt < 1800.0


# -- 9. height recovery from exact inputs ------------------------------------

def test_c09_height_solver_recovers_exact_inputs():
    region = ServiceRegion(30.0, 30.0, 6.0, (0.0, 6.0))
    layouts = {m: build_mw_layout(region, m, 32, HALF_WAVE) for m in (4, 8)}
    refs = {m: np.array([s.reference_position for s in layouts[m].subarrays])
            for m in (4, 8)}
    rng = np.random.default_rng(2026)
    hits = 0
    zero_gap_checked = 0
    for i in range(500):
        m = 4 if i % 2 == 0 else 8
        v = refs[m]
        x, y = rng.uniform(2.0, 28.0, 2)
        h = 6.0 if i % 10 == 0 else rng.uniform(0.0, 6.0)
        q = np.array([x, y, h])
        r3 = np.linalg.norm(q - v, axis=1)
        fix = solve_position_3d(v, (x - v[:, 0]) / r3, bounds=((0.0, 30.0), (0.0, 30.0)))
        hits += int(np.linalg.norm(fix.position - q) < 1e-3)
        if i % 10 == 0:
            zero_gap_checked += 1
            assert fix.position[2] == 6.0, (
                f"target at the array height must report it exactly, got "
                f"{fix.position[2]!r}"
            )
    print(f"[c09] {hits}/500 instances within 1 mm; "
          f"{zero_gap_checked} zero-gap heights exact")
    assert hits >= 495


# -- 10. sweep determinism ---------------------------------------------------

def test_c10_same_seed_sweeps_are_bitwise_identical(tmp_path):
    params = dict(
        scenarios=("mw", "nf"), m=3, snr_db=(20.0, 25.0), trials=3,
        seed=123, g_theta=256,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_sweep(ExperimentConfig(**params)).write_csv(out_a)
    run_sweep(ExperimentConfig(**params)).write_csv(out_b)
    for name in ("rmse.csv", "nmse.csv", "meta.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    print("[c10] rmse.csv, nmse.csv, meta.json bitwise identical across reruns")
