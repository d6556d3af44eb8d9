"""Direction matching, sign-resolved position fusion, and the joint loop."""

import dataclasses
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import passloc.estimator
import passloc.harness
from passloc.channel import (
    RadioConfig,
    channel_vector,
    make_schedule,
    measure,
    measurement_matrix,
    path_vector,
    point_responses,
    synthesize_paths,
    waveguide_vector,
)
from passloc.dictionary import (
    PHASE_ATOMS_ERROR,
    AngleGrid,
    DictionaryError,
    DpDictionary,
    build_dp_dictionary,
    build_polar_dictionary,
    default_polar_rings,
    phase_atoms,
    polar_columns,
    project_dictionary,
)
from passloc.estimator import (
    CERTIFY_TAU,
    POLISH_MAX_EVALS,
    POLISH_STEP,
    POLISH_TOL,
    SCREEN_ERROR,
    DirectionEstimate,
    EstimatorConfig,
    _start_distances,
    activation_energies,
    arbitrate,
    atom_energies,
    bit_correlations,
    certified_picks,
    coarse_columns,
    estimate_path,
    extract_directions,
    fuse,
    measured_gram,
    omp_direction,
    peel,
    polar_dictionary,
    polish,
    projection_matrix,
    rank_one_fit,
    redone_scores,
    refit_slope,
    resolve_signs,
    run_omp_gcl,
    run_polar_baseline,
    sign_consistency_penalty,
    solve_position_3d,
    solve_position_ls,
    start_dictionaries,
)
from passloc.geometry import (
    Scene,
    ServiceRegion,
    Structure,
    SubarrayGeometry,
    build_mw_layout,
    build_sw_layout,
    custom_layout,
    sample_scene,
)


def _measured(radio, half_wave, n=16, g=32, r=6.0, slots=24, seed=0, dh=2.0):
    """A built dictionary, a live measurement matrix W, and the measured columns W A."""
    sub = SubarrayGeometry(np.array([0.0, 0.0, 2.0]), n, half_wave)
    dic = build_dp_dictionary(sub, r, AngleGrid.uniform_cosine(g), radio, dh=dh)
    rng = np.random.default_rng(seed)
    rows = (rng.random((slots, n)) < 0.5).astype(np.uint8)
    rows[rows.sum(axis=1) == 0, 0] = 1
    w = measurement_matrix(sub, rows, radio)
    return dic, w, w @ dic.atoms


# --- greedy direction matching -------------------------------------------------


def test_omp_matches_its_own_column(radio, half_wave):
    dic, w, phi = _measured(radio, half_wave)
    de = omp_direction(phi[:, 7], w, dic)
    assert de.grid_index == 7
    assert de.correlation == pytest.approx(np.linalg.norm(phi[:, 7]), rel=1e-12)
    assert de.coefficient == pytest.approx(1.0, rel=1e-12)
    assert not de.low_confidence
    assert de.varphi == pytest.approx(dic.cosines[7])


def test_omp_agrees_with_exhaustive_scan(radio, half_wave, rng):
    dic, w, phi = _measured(radio, half_wave)
    slots = phi.shape[0]
    y = rng.standard_normal(slots) + 1j * rng.standard_normal(slots)
    corr = [
        abs(sum(np.conj(phi[t, g]) * y[t] for t in range(slots))) / np.linalg.norm(phi[:, g])
        for g in range(dic.g)
    ]
    de = omp_direction(y, w, dic)
    assert de.grid_index == int(np.argmax(corr))
    assert de.correlation == pytest.approx(max(corr), rel=1e-10)


def test_omp_coefficient_in_pre_normalization_scale(radio, half_wave):
    dic, w, phi = _measured(radio, half_wave)
    alpha = 2.5 - 1.25j
    de = omp_direction(alpha * phi[:, 11], w, dic)
    assert de.grid_index == 11
    assert de.coefficient == pytest.approx(alpha, rel=1e-10)


def test_omp_flags_orthogonal_residual(radio, half_wave):
    dic, w, phi = _measured(radio, half_wave, g=8, slots=12)
    # a vector in the orthogonal complement of the 8 measured columns
    q, _ = np.linalg.qr(phi, mode="complete")
    de = omp_direction(q[:, -1], w, dic)
    assert de.low_confidence


def test_omp_scale_invariance(radio, half_wave, rng):
    dic, w, _ = _measured(radio, half_wave)
    y = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    a = omp_direction(y, w, dic)
    b = omp_direction(3.7e-3 * y, w, dic)
    assert a.grid_index == b.grid_index
    assert b.coefficient == pytest.approx(3.7e-3 * a.coefficient, rel=1e-12)


def test_omp_validation(radio, half_wave):
    dic, w, _ = _measured(radio, half_wave)
    with pytest.raises(ValueError):
        omp_direction(np.ones(3, dtype=complex), w, dic)  # residual length
    with pytest.raises(ValueError):
        omp_direction(np.ones(24, dtype=complex), w[:, :-1], dic)  # W width


def _random_case(radio, half_wave, seed):
    """A built dictionary, a complex W with some all-zero rows, and a residual."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    t = int(rng.integers(2, 80))
    g = int(rng.integers(2, 700))
    sub = SubarrayGeometry(np.array([0.0, 0.0, 2.0]), n, half_wave)
    r, dh = float(rng.uniform(0.05, 40.0)), float(rng.uniform(0.0, 4.0))
    dic = build_dp_dictionary(sub, r, AngleGrid.uniform_cosine(g), radio,
                              dh=dh if seed % 2 == 0 else 0.0)  # odd seeds: a 3-D (slant) build
    w = rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))
    w[rng.random(t) < 0.25] = 0.0
    y = rng.standard_normal(t) + 1j * rng.standard_normal(t)
    if seed % 3 == 0:  # a residual that one column explains, plus a little noise
        y = (1.5 - 0.5j) * (w @ dic.atoms[:, rng.integers(g)]) + 1e-9 * y
    return dic, w, y


# _random_case seeds whose T x N W is tall (N < T), and wide or square (N >= T)
TALL_SEEDS, WIDE_SEEDS = (1, 4), (2, 3)


def _oracle(dic, w, y):
    """(grid index, score, coefficient) of the best column, from the definition."""
    phi = w @ dic.atoms
    energy = np.sum(np.abs(phi) ** 2, axis=0)
    corr = phi.conj().T @ y
    score = np.where(energy > 0.0, np.abs(corr) / np.sqrt(np.where(energy > 0.0, energy, 1.0)),
                     -1.0)
    g = int(np.argmax(score))
    return g, score[g], corr[g] / energy[g]


@pytest.mark.parametrize("seed", range(24))
def test_gram_matching_agrees_with_projected_matching(radio, half_wave, seed):
    """omp_direction picks the oracle's column, whether N < T or N >= T."""
    dic, w, y = _random_case(radio, half_wave, seed)
    g, score, coeff = _oracle(dic, w, y)
    got = omp_direction(y, w, dic)
    assert (got.grid_index, got.varphi) == (g, dic.cosines[g])
    assert got.low_confidence == (score <= 1e-8 * np.linalg.norm(y))
    assert got.coefficient == pytest.approx(coeff, rel=1e-10)
    assert got.correlation == pytest.approx(score, rel=1e-10)


def test_gram_matching_flags_a_residual_outside_the_range_of_w(radio, half_wave):
    for seed in TALL_SEEDS[:1] + WIDE_SEEDS[:1]:
        dic, w, _ = _random_case(radio, half_wave, seed)
        w[0] = 0.0
        y = np.zeros(w.shape[0], dtype=complex)
        y[0] = 1.0  # W^H y = 0
        assert omp_direction(y, w, dic).low_confidence


def test_gram_matching_ties_resolve_to_the_lower_index(radio, half_wave):
    for seed in TALL_SEEDS[1:] + WIDE_SEEDS[1:]:
        dic, w, _ = _random_case(radio, half_wave, seed)
        atoms = dic.atoms.copy()
        atoms[:, 9] = atoms[:, 5]
        twin = DpDictionary(r_param=dic.r_param, cosines=dic.cosines, atoms=atoms)
        de = omp_direction(w @ atoms[:, 9], w, twin)
        assert de.grid_index == 5
        assert de.coefficient == pytest.approx(1.0, rel=1e-10)


def test_gram_matching_validation(radio, half_wave):
    for seed in TALL_SEEDS[:1] + WIDE_SEEDS[:1]:
        dic, w, y = _random_case(radio, half_wave, seed)
        with pytest.raises(DictionaryError, match="annihilated every atom"):
            omp_direction(y, np.zeros_like(w), dic)
        with pytest.raises(ValueError):
            omp_direction(y[:-1], w, dic)
        with pytest.raises(ValueError):
            omp_direction(y, w[:, :-1], dic)


def test_matcher_never_picks_an_annihilated_column(radio, half_wave):
    two = SubarrayGeometry(np.array([0.0, 0.0, 2.0]), 2, half_wave)
    dic = build_dp_dictionary(two, 5.0, AngleGrid.uniform_cosine(8), radio)
    victim = dic.atoms[:, 3]
    # w @ victim = v1*v0 - v0*v1 = 0 exactly, so column 3 has zero energy (N = 2 >= T = 1)
    w = np.array([[victim[1], -victim[0]]])
    assert project_dictionary(dic, w)[0, 3] == 0.0
    for y in (np.ones(1, dtype=complex), np.array([0.3 - 2.0j])):
        assert omp_direction(y, w, dic).grid_index != 3


# --- two-stage matching ----------------------------------------------------------


def _first_match(y, w, dic, coarse, radio, half_wave):
    """extract_directions' match of one subarray on a float64 dictionary's grid, as on a path's
    first iteration: the dictionary's own scores decide."""
    cfg = EstimatorConfig(region=ServiceRegion(30.0, 30.0, 2.0), g_theta=dic.g)
    assert np.array_equal(cfg.grid.values, dic.cosines)
    sub = SubarrayGeometry(np.zeros(3), dic.atoms.shape[0], half_wave)
    return extract_directions([w], [y], measured_gram(w)[None], coarse, sub, radio, cfg,
                              start=[dic])[0]


@pytest.mark.parametrize("seed", range(24))
def test_two_stage_match_picks_the_full_grid_column(radio, half_wave, seed):
    """extract_directions at its subarray's stride (1 to 17 here), whether N < T or N >= T."""
    dic, w, y = _random_case(radio, half_wave, seed)
    sub = SubarrayGeometry(np.array([0.0, 0.0, 2.0]), dic.atoms.shape[0], half_wave)
    full = omp_direction(y, w, dic)
    got = _first_match(y, w, dic, coarse_columns(sub, radio, dic.g), radio, half_wave)
    assert (got.grid_index, got.varphi) == (full.grid_index, full.varphi)
    assert got.low_confidence == full.low_confidence


def test_two_stage_match_finds_a_peak_between_coarse_columns_that_are_not_local_maxima(
        radio, half_wave):
    # Two paths 35 columns apart at a 120 degree phase offset give a flat top:
    # the coarse scores around the peak are within 0.4 % of it, and the coarse
    # columns either side of the peak are not local maxima of the coarse scores,
    # so refining only around those maxima would miss the peak.
    dic, w, _ = _measured(radio, half_wave, n=32, g=1024, slots=64)
    y = w @ (dic.atoms[:, 304] + np.exp(2j * np.pi / 3) * dic.atoms[:, 339])
    full = omp_direction(y, w, dic)
    coarse = coarse_columns(SubarrayGeometry(np.zeros(3), 32, half_wave), radio, 1024)
    assert np.array_equal(coarse, np.append(np.arange(0, 1024, 8), 1023))  # S = 8
    phi = w @ dic.atoms[:, coarse]
    score = np.abs(phi.conj().T @ y) / np.linalg.norm(phi, axis=0)
    i = np.searchsorted(coarse, full.grid_index) - 1
    assert coarse[i] < full.grid_index < coarse[i + 1]
    for k in (i, i + 1):
        assert score[k] < max(score[k - 1], score[k + 1])
    got = _first_match(y, w, dic, coarse, radio, half_wave)
    assert (got.grid_index, got.varphi) == (full.grid_index, full.varphi)
    assert got.columns_scored < 1024


def test_two_stage_match_at_stride_one_is_omp_direction(radio, half_wave):
    # S = floor(128 / (4 * 32)) = 1: the coarse columns are the whole grid
    dic, w, _ = _measured(radio, half_wave, n=32, g=128, slots=64)
    coarse = coarse_columns(SubarrayGeometry(np.zeros(3), 32, half_wave), radio, 128)
    assert np.array_equal(coarse, np.arange(128))
    rng = np.random.default_rng(5)
    for y in (w @ dic.atoms[:, 40], rng.standard_normal(64) + 1j * rng.standard_normal(64)):
        assert _first_match(y, w, dic, coarse, radio, half_wave) == omp_direction(y, w, dic)


def test_two_stage_match_without_a_scoring_coarse_column_scores_the_full_grid(radio, half_wave):
    dic, w, phi = _measured(radio, half_wave, n=16, g=64)
    coarse = np.append(np.arange(0, 64, 8), 63)
    atoms = dic.atoms.copy()
    atoms[:, coarse] = 0.0  # W annihilates every coarse column
    hollow = DpDictionary(r_param=dic.r_param, cosines=dic.cosines, atoms=atoms)
    for y in (phi[:, 21], phi[:, 8] + 0.5 * phi[:, 44]):
        got = _first_match(y, w, hollow, coarse, radio, half_wave)
        assert got == omp_direction(y, w, hollow)
        assert got.columns_scored == 64
    with pytest.raises(DictionaryError, match="annihilated every atom"):
        _first_match(phi[:, 21], np.zeros_like(w), dic, coarse, radio, half_wave)


def test_extract_directions_gives_one_estimate_per_subarray(region, radio, half_wave):
    layout = build_mw_layout(region, 4, 16, half_wave)
    scene = sample_scene(region, l=0, rng_seed=3)
    ms = measure(layout, make_schedule(layout, 32, 0.5, rng_seed=1),
                 synthesize_paths(layout, scene, radio), radio, snr_db=20.0, rng_seed=2)
    cfg = EstimatorConfig(region=region, g_theta=128)
    sub = layout.subarrays[0]
    ests = extract_directions(ms.w, ms.y, np.stack([measured_gram(w) for w in ms.w]),
                              coarse_columns(sub, radio, cfg.g_theta), sub, radio, cfg,
                              r_anchor=np.full(layout.m, 10.0))
    assert len(ests) == layout.m
    for m, (sub, d) in enumerate(zip(layout.subarrays, ests)):
        dic = build_dp_dictionary(sub, 10.0, cfg.grid, radio, dh=region.h_pa)
        g, _, _ = _oracle(dic, ms.w[m], ms.y[m])
        assert (d.grid_index, d.varphi) == (g, dic.cosines[g])
        assert d.columns_scored < cfg.g_theta  # S = 128 / (4 * 16) = 2


@pytest.mark.parametrize("first", [True, False])
def test_each_subarray_of_the_stage_matches_as_it_does_alone(region, radio, half_wave, first):
    """Four subarrays observing 7, 64, 23 and 2 slots, cut from one measurement: each one's
    estimate from the stage of all four equals the stage's of it alone (M = 1), field by field,
    on a first iteration's float64 dictionaries and on the certified screen at spread anchor
    distances, one of them floored onto a reference."""
    layout = build_mw_layout(region, 4, 32, half_wave)
    full = measure(layout, make_schedule(layout, 64, 0.5, rng_seed=6),
                   synthesize_paths(layout, sample_scene(region, l=1, rng_seed=6), radio), radio,
                   snr_db=15.0, rng_seed=7)
    keep = [7, 64, 23, 2]
    ms = dataclasses.replace(full, y=tuple(y[:t] for y, t in zip(full.y, keep)),
                             w=tuple(w[:t] for w, t in zip(full.w, keep)),
                             slot_ids=tuple(s[:t] for s, t in zip(full.slot_ids, keep)))
    assert [len(y) for y in ms.y] == [len(w) for w in ms.w] == keep
    cfg = EstimatorConfig(region=region)
    sub = layout.subarrays[0]
    coarse, grams = coarse_columns(sub, radio, cfg.g_theta), np.stack([measured_gram(w)
                                                                      for w in ms.w])
    anchor = (dict(start=start_dictionaries(layout, radio, cfg)) if first
              else dict(r_anchor=np.array([4.5, 17.0, 1e-3, 30.5])))
    together = extract_directions(ms.w, ms.y, grams, coarse, sub, radio, cfg, **anchor)
    for m in range(layout.m):
        alone = extract_directions(ms.w[m:m + 1], ms.y[m:m + 1], grams[m:m + 1], coarse, sub,
                                   radio, cfg, **{k: v[m:m + 1] for k, v in anchor.items()})
        assert together[m] == alone[0]
    assert first or all(d.columns_redone >= 1 for d in together)


# --- the OMP-GCL screen and its certificate ----------------------------------------


def _float64_match(y, w, build, coarse) -> tuple:
    """The two-stage match from its definition, in float64: (grid_index, columns_scored,
    coefficient). build(idx) is build_dp_dictionary of grid columns idx; the energies and
    correlations are the measured columns' own, so the oracle shares no code with the matcher."""
    def scored(idx):
        phi = w @ build(idx).atoms
        energy = np.sum(np.abs(phi) ** 2, axis=0)
        corr = phi.conj().T @ y
        live = energy > 0.0
        return (np.where(live, np.abs(corr) / np.sqrt(np.where(live, energy, 1.0)), -1.0),
                corr / np.where(live, energy, 1.0))

    score, _ = scored(coarse)
    best = score.max()
    hot = (score >= passloc.estimator.REFINE_FRACTION * best) | (best <= 0.0)
    fine = []
    for j in sorted(set(range(coarse[-1] + 1)) - set(coarse.tolist())):
        i = int(np.searchsorted(coarse, j))
        if hot[i - 1] or hot[i]:
            fine.append(j)
    idx = np.array(sorted(coarse.tolist() + fine))
    score, coefficient = scored(idx)
    g = int(np.argmax(score))
    return int(idx[g]), idx.size, complex(coefficient[g])


def _anchored(sub, radio, cfg, r):
    """(screen, exact) of cfg.grid at anchor distance r: screen(idx) and exact(idx) are the
    DpDictionary of grid columns idx, phase_atoms' complex64 screen and build_dp_dictionary's
    float64 columns."""
    values = cfg.grid.values

    def screen(idx):
        return DpDictionary(r_param=r, cosines=values[idx],
                            atoms=phase_atoms(sub, radio, values[idx], r, cfg.dh))

    def exact(idx):
        return build_dp_dictionary(sub, r, values[idx], radio, dh=cfg.dh)
    return screen, exact


def _omp_case(region, radio, half_wave, r=9.7):
    """One N = 32, T = 64 subarray's W, its (screen, exact) at r (_anchored), its coarse columns
    (S = 8 on the 1,024-column grid), and match(y): extract_directions' certified match of that
    subarray at r."""
    lay = build_mw_layout(region, 3, 32, half_wave)
    ms = measure(lay, make_schedule(lay, 64, 0.5, rng_seed=3),
                 synthesize_paths(lay, sample_scene(region, l=0, rng_seed=3), radio), radio,
                 snr_db=20.0, rng_seed=4)
    cfg, sub, w = EstimatorConfig(region=region), lay.subarrays[0], ms.w[0]
    coarse = coarse_columns(sub, radio, cfg.g_theta)

    def match(y):
        return extract_directions([w], [y], measured_gram(w)[None], coarse, sub, radio, cfg,
                                  r_anchor=np.array([r]))[0]
    return (w, *_anchored(sub, radio, cfg, r), coarse, match)


def _unit_templates(w, exact, columns):
    t = w @ exact(np.array(columns)).atoms
    return t / np.linalg.norm(t, axis=0)


def _screen_alone(screen, coarse, column, atom):
    """The screen of the whole grid with the given column's atom replaced by ``atom``, widened
    to a float64 dictionary: its own scores decide, as the screen's alone would."""
    d = screen(np.arange(coarse[-1] + 1))
    atoms = d.atoms.astype(complex)
    atoms[:, column] = atom
    return dataclasses.replace(d, atoms=atoms)


def _rigged(cosine, atom):
    """The estimator's phase_atoms, patched: every column at ``cosine`` gets ``atom``."""
    real = passloc.estimator.phase_atoms

    def kernel(subarray, radio, cosines, distances, dh=0.0, path=None):
        out = real(subarray, radio, cosines, distances, dh, path)
        out[:, cosines == cosine] = atom[:, None]
        return out
    return mock.patch.object(passloc.estimator, "phase_atoms", kernel)


def _bisect(f, lo, hi, target, steps=60):
    """x in [lo, hi] with f(x) = target for an f increasing there."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return 0.5 * (lo + hi)


def test_omp_certificate_breaks_a_forced_near_tie_as_float64_does(region, radio, half_wave):
    """The peaks of two lobes within CERTIFY_TAU / 10 in float64; the screen, given an atom
    slightly closer to y for the lower one, ranks it first. The certificate picks float64's."""
    w, screen, exact, coarse, match = _omp_case(region, radio, half_wave)
    idx = np.arange(coarse[-1] + 1)
    t = _unit_templates(w, exact, [296, 704])
    lobes = (slice(276, 317), slice(684, 725))

    def peaks(beta):  # each lobe's best float64 score for y = t_704 + beta t_296
        s = passloc.estimator._scores(t[:, 1] + beta * t[:, 0], w, exact(idx))[0]
        return [lobe.start + int(np.argmax(s[lobe])) for lobe in lobes], s

    def ratio(beta):
        (lose, win), s = peaks(beta)
        return s[lose] / s[win]

    beta = _bisect(ratio, 0.5, 1.5, 1.0 - CERTIFY_TAU / 10.0)
    y = t[:, 1] + beta * t[:, 0]
    (lose, win), s64 = peaks(beta)
    want = _float64_match(y, w, exact, coarse)
    assert want[0] == win and (1.0 - CERTIFY_TAU) * s64[win] <= s64[lose] < s64[win]
    atom_win = exact(np.array([win])).atoms[:, 0]
    atom_star = np.linalg.lstsq(w, y, rcond=None)[0]  # the best-scoring atom of all
    screen_win = passloc.estimator._scores(y, w, screen(np.array([win])))[0][0]

    def boosted(eps):  # the score of an atom eps of the way from the winner's to atom_star
        d = DpDictionary(r_param=9.7, cosines=np.zeros(1),
                         atoms=(atom_win + eps * (atom_star - atom_win))[:, None])
        return passloc.estimator._scores(y, w, d)[0][0] / screen_win

    eps = _bisect(boosted, 0.0, 1.0, 1.0 + CERTIFY_TAU / 10.0)
    atom = (atom_win + eps * (atom_star - atom_win)).astype(np.complex64)
    alone = _screen_alone(screen, coarse, lose, atom)
    assert _first_match(y, w, alone, coarse, radio, half_wave).grid_index == lose
    with _rigged(alone.cosines[lose], atom):
        got = match(y)
    assert (got.grid_index, got.columns_scored) == want[:2]
    assert got.coefficient == pytest.approx(want[2], rel=1e-9)
    assert got.columns_redone >= 2


def test_omp_certificate_refines_a_coarse_column_at_the_cut_as_float64_does(region, radio,
                                                                           half_wave):
    """A coarse column scoring REFINE_FRACTION (1 + CERTIFY_TAU / 5) of the best in float64,
    screened just below the cut: the certificate refines its intervals, as float64 does."""
    w, screen, exact, coarse, match = _omp_case(region, radio, half_wave)
    a, b = 304, 704
    t = _unit_templates(w, exact, [a, b])
    cut = passloc.estimator.REFINE_FRACTION

    def ratio(beta):  # b's float64 score over a's for y = t_a + beta t_b
        s = passloc.estimator._scores(t[:, 0] + beta * t[:, 1], w, exact(np.array([a, b])))[0]
        return s[1] / s[0]

    y = t[:, 0] + _bisect(ratio, 0.2, 0.8, cut * (1.0 + CERTIFY_TAU / 5.0)) * t[:, 1]
    want = _float64_match(y, w, exact, coarse)
    exact_coarse = passloc.estimator._scores(y, w, exact(coarse))[0]
    assert np.argmax(exact_coarse) == np.searchsorted(coarse, a)

    atom_a, atom_b = exact(np.array([a, b])).atoms.T

    def screened(eps):  # b's score with its atom moved away from a's, over the best float64 score
        d = DpDictionary(r_param=9.7, cosines=np.zeros(1), atoms=(atom_b - eps * atom_a)[:, None])
        return -passloc.estimator._scores(y, w, d)[0][0] / exact_coarse.max()

    eps = _bisect(screened, -0.05, 0.05, -cut * (1.0 - CERTIFY_TAU / 5.0))
    atom = (atom_b - eps * atom_a).astype(np.complex64)
    alone = _screen_alone(screen, coarse, b, atom)
    # the screen alone leaves b's intervals out
    assert _first_match(y, w, alone, coarse, radio, half_wave).columns_scored == want[1] - 14
    with _rigged(alone.cosines[b], atom):
        got = match(y)
    assert (got.grid_index, got.columns_scored) == want[:2]
    assert got.coefficient == pytest.approx(want[2], rel=1e-9)
    assert got.columns_redone >= 2


def test_omp_certificate_picks_against_a_far_too_high_screen_score(region, radio, half_wave):
    """A screen score far outside the bound only costs redone columns: _certified_best widens
    its set to the float64 best and the pick is still float64's."""
    w, _, exact, coarse, _ = _omp_case(region, radio, half_wave)
    y = _unit_templates(w, exact, [704])[:, 0]
    want = _float64_match(y, w, exact, coarse)
    idx = np.arange(coarse[-1] + 1)

    def redo(k):
        return passloc.estimator._scores(y, w, exact(idx[k]))

    score = redo(idx)[0]
    score[100] = 10.0 * score.max()
    de, = certified_picks([y], score, 0.0, np.array([0, idx.size]), redo, idx, exact(idx).cosines)
    assert de.grid_index == want[0] == 704 and de.columns_redone >= 2


def test_a_column_within_its_error_bound_of_the_best_is_redone(region, radio, half_wave):
    """The float64 best column screened 3 CERTIFY_TAU below the runner-up, whose screen score is
    its float64 one, and its error bound covering that: the certificate redoes it, where
    CERTIFY_TAU alone would not, and picks it. A second segment, the same columns without the
    bound, picks the runner-up."""
    w, _, exact, coarse, _ = _omp_case(region, radio, half_wave)
    y = _unit_templates(w, exact, [704])[:, 0]
    idx = np.arange(coarse[-1] + 1)

    def redo(k):  # the float64 scores at flat positions k of segments that each hold the grid
        seg = k // idx.size
        return [np.concatenate(a) for a in zip(*(
            passloc.estimator._scores(y, w, exact(idx[k[seg == s] % idx.size]))
            for s in np.unique(seg)))]

    score = redo(idx)[0]
    best, runner = np.argsort(score)[[-1, -2]]
    screen = score.copy()
    screen[best] = score[runner] * (1.0 - 3.0 * CERTIFY_TAU)
    error = np.zeros_like(screen)
    bounds = np.array([0, idx.size])
    assert best not in passloc.estimator._certified_best(screen, error, bounds, redo)[0]
    error[best] = 1.01 * (score[best] - screen[best])
    assert best in passloc.estimator._certified_best(screen, error, bounds, redo)[0]
    both = np.concatenate((screen, screen)), np.concatenate((error, 0.0 * error))
    de, alone = certified_picks([y, y], *both, np.array([0, idx.size, 2 * idx.size]), redo,
                                np.tile(idx, 2), np.tile(exact(idx).cosines, 2))
    assert de.grid_index == best == 704
    assert alone.grid_index == runner != best


def _omp_screen_errors(w, y, screen, exact, coarse) -> list:
    """The screen's largest score error, as a share of the best float64 score among the columns
    screened with it: the coarse stage's and the full grid's, for y and for the residual of its
    best full-grid column's refit."""
    idx = np.arange(coarse[-1] + 1)
    errors = []
    for r in (y, None):
        if r is None:
            t = w @ exact(np.array([np.argmax(s64)])).atoms[:, 0]
            r = y - t * (np.vdot(t, y) / np.vdot(t, t))
        s64 = passloc.estimator._scores(r, w, exact(idx))[0]
        s32 = passloc.estimator._scores(r, w, screen(idx))[0]
        for cols in (coarse, idx):  # a zero residual scores 0 everywhere, in both
            error = float(np.max(np.abs(s32[cols] - s64[cols])))
            errors.append(error / s64[cols].max() if error else 0.0)
    return errors


@pytest.mark.parametrize("m, mode", [(3, "2d"), (8, "2d"), (4, "3d")])
def test_omp_screen_stays_within_its_error_bound_at_the_sweep_size(m, mode):
    """N = 32, T = 64 and 1,024 cosines, the mw sweeps' defaults, at the start distances and
    at random anchor distances, from 0 to 30 dB."""
    assert SCREEN_ERROR < CERTIFY_TAU
    tall = dict(h_pa=6.0, h_range=(0.0, 3.0)) if mode == "3d" else {}
    cfg = passloc.harness.ExperimentConfig(scenarios=["mw"], m=m, mode=mode, seed=11, trials=2,
                                           snr_db=(0.0, 30.0), **tall)
    est, rng = cfg.estimator_config(), np.random.default_rng(m)
    for si, snr in enumerate(cfg.snr_db):
        for trial in range(cfg.trials):
            _, layout, _, _, ms = passloc.harness.simulate_trial(cfg, "mw", snr, si, trial)
            coarse = coarse_columns(layout.subarrays[0], cfg.radio, est.g_theta)
            for r in (_start_distances(layout, est), rng.uniform(0.5, 45.0, layout.m)):
                for w, y, sub, r_m in zip(ms.w, ms.y, layout.subarrays, r):
                    screen, exact = _anchored(sub, cfg.radio, est, r_m)
                    errors = _omp_screen_errors(w, y, screen, exact, coarse)
                    assert max(errors) <= SCREEN_ERROR, (snr, trial, errors)


def _screen_case(region, radio, half_wave, n, slots, g, r, dh, snr, seed):
    """One subarray's W, its pilots y and the residual of y after its best float64 column's
    refit, and (screen, exact) of its g-column grid at r (_anchored), dh above the target."""
    lay = build_mw_layout(region, 1, n, half_wave)
    ms = measure(lay, make_schedule(lay, slots, 0.5, rng_seed=seed),
                 synthesize_paths(lay, sample_scene(region, l=1, rng_seed=seed), radio), radio,
                 snr_db=snr, rng_seed=seed + 1)
    cfg = EstimatorConfig(region=dataclasses.replace(region, h_pa=2.0 + dh), g_theta=g)
    screen, exact = _anchored(lay.subarrays[0], radio, cfg, r)
    w, y, idx = ms.w[0], ms.y[0], np.arange(g)
    t = w @ exact(idx).atoms[:, np.argmax(passloc.estimator._scores(y, w, exact(idx))[0])]
    return w, (y, y - t * (np.vdot(t, y) / np.vdot(t, t))), screen, exact, lay.subarrays[0], cfg


def _row_norms(rows):
    """||a_j||^2 of the complex rows a_j^T."""
    return np.sum(np.abs(rows) ** 2, axis=1)


_any_screen = dict(n=st.integers(1, 64), slots=st.integers(1, 64), g=st.integers(2, 256),
                   r=st.floats(0.05, 60.0), dh=st.floats(0.0, 6.0), snr=st.floats(0.0, 30.0),
                   seed=st.integers(0, 2**16))


@settings(max_examples=100, deadline=None)
@given(**_any_screen)
def test_omp_screen_error_is_the_atoms_error(region, radio, half_wave, n, slots, g, r, dh, snr,
                                            seed):
    """A screen score moves by at most PHASE_ATOMS_ERROR kappa_j (||r|| + s_j) from its float64
    score s_j, kappa_j = ||W|| ||a_j|| / ||W a_j||: the perturbation of W a_j by the atoms' error,
    for the pilots and the residual of the best column's refit, on any config."""
    w, residuals, screen, exact, _, _ = _screen_case(region, radio, half_wave, n, slots, g, r,
                                                     dh, snr, seed)
    idx = np.arange(g)
    atoms = exact(idx).atoms
    kappa = np.linalg.norm(w, 2) * np.linalg.norm(atoms, axis=0) / np.linalg.norm(w @ atoms, axis=0)
    for res in residuals:
        s64 = passloc.estimator._scores(res, w, exact(idx))[0]
        s32 = passloc.estimator._scores(res, w, screen(idx))[0]
        norm = np.linalg.norm(res)
        bound = 1.01 * PHASE_ATOMS_ERROR * kappa * (norm + s64) + 1e-12 * norm
        assert np.all(np.abs(s32 - s64) <= bound)


@settings(max_examples=100, deadline=None)
@given(**_any_screen)
def test_omp_screen_error_bound_holds_for_every_column(region, radio, half_wave, n, slots, g, r,
                                                      dh, snr, seed):
    """_screen_error, read from the screen's own values, bounds every column's score error,
    with no slack, for the pilots and the residual of the best column's refit, on any config."""
    w, residuals, screen, exact, _, _ = _screen_case(region, radio, half_wave, n, slots, g, r,
                                                     dh, snr, seed)
    idx = np.arange(g)
    rows = np.ascontiguousarray(screen(idx).atoms.T, dtype=complex)
    for res in residuals:
        s64 = passloc.estimator._scores(res, w, exact(idx))[0]
        s32, _, energy = passloc.estimator._scores(res, w, screen(idx))
        bound = passloc.estimator._screen_error(_row_norms(rows), energy, s32,
                                                np.linalg.norm(w), np.linalg.norm(res))
        assert np.all(np.abs(s32 - s64) <= bound)


def test_omp_certificate_is_exact_where_the_screen_bound_fails(region, radio, half_wave):
    """N = 2, T = 2 and 2 columns at 58.8 m: after the best column's refit the screen errs by
    2.9e-5 of the best score, beyond SCREEN_ERROR (a hypothesis falsifying example). The
    per-column bound covers the error, and the certified match is float64's."""
    w, (_, res), screen, exact, sub, cfg = _screen_case(
        region, radio, half_wave, n=2, slots=2, g=2, r=58.80954189745845,
        dh=0.22709735040503087, snr=29.708735274057222, seed=35288)
    idx = np.arange(2)
    s64 = passloc.estimator._scores(res, w, exact(idx))[0]
    s32, _, energy = passloc.estimator._scores(res, w, screen(idx))
    assert np.max(np.abs(s32 - s64)) > 2.0 * SCREEN_ERROR * s64.max()
    rows = np.ascontiguousarray(screen(idx).atoms.T, dtype=complex)
    bound = passloc.estimator._screen_error(_row_norms(rows), energy, s32,
                                            np.linalg.norm(w), np.linalg.norm(res))
    assert np.all(np.abs(s32 - s64) <= bound)
    coarse = coarse_columns(sub, radio, 2)
    got = extract_directions([w], [res], measured_gram(w)[None], coarse, sub, radio, cfg,
                             r_anchor=np.array([58.80954189745845]))[0]
    want = _float64_match(res, w, exact, coarse)
    assert (got.grid_index, got.columns_scored) == want[:2]
    assert got.coefficient == pytest.approx(want[2], rel=1e-9)
    assert got.columns_redone >= 1


_small_omp = dict(scenario=st.sampled_from(["mw", "sw", "sw2", "3d"]), m=st.integers(3, 5),
                  n=st.integers(2, 48), slots=st.integers(1, 48), g=st.integers(2, 256),
                  l=st.integers(0, 1), snr=st.floats(0.0, 30.0), seed=st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(**_small_omp)
def test_certified_omp_matches_equal_the_float64_matches(scenario, m, n, slots, g, l, snr, seed):
    """Every certified match of a run_omp_gcl trial, against _float64_match on its residual.
    Tied pilots score every column alike, a tie at any precision: not drawn."""
    tall = dict(mode="3d", h_pa=6.0, h_range=(0.0, 3.0)) if scenario == "3d" else {}
    cfg = passloc.harness.ExperimentConfig(
        scenarios=["mw" if scenario == "3d" else scenario], m=m, n=n, slots_per_subarray=slots,
        g_theta=g, l=l, snr_db=(snr,), seed=seed, trials=1, **tall)
    name = cfg.scenarios[0]
    _, layout, _, _, ms = passloc.harness.simulate_trial(cfg, name, snr, 0, 0)
    assume(not any(passloc.estimator._tied_pilots(w) for w in ms.w))
    real, matches = passloc.estimator.extract_directions, []

    def recording(w_list, residuals, grams, coarse, subarray, radio, config, start=None,
                  r_anchor=None):
        ys = [y.copy() for y in residuals]
        des = real(w_list, residuals, grams, coarse, subarray, radio, config, start=start,
                   r_anchor=r_anchor)
        if r_anchor is not None:  # each subarray's certified match, with its float64 columns
            matches.extend((y, w, coarse, _anchored(subarray, radio, config, r)[1], de)
                           for y, w, r, de in zip(ys, w_list, r_anchor, des))
        return des

    with mock.patch.object(passloc.estimator, "extract_directions", recording):
        try:
            passloc.harness.estimate(cfg, name, ms, layout,
                                     passloc.harness.scenario_atoms(cfg, name))
        except DictionaryError:
            assume(False)
    assert matches  # the second iteration's
    for y, w, coarse, exact, de in matches:
        want = _float64_match(y, w, exact, coarse)
        assert (de.grid_index, de.columns_scored) == want[:2]
        assert de.coefficient == pytest.approx(want[2], rel=1e-9, abs=1e-300)
        assert de.columns_redone >= 1


@pytest.mark.parametrize("scenario", ["nf", "mw", "sw"])
def test_tied_pilots_are_flagged_on_every_such_trial(scenario):
    """One slot per subarray, or every PA on in every slot: bits of rank 1."""
    for tie in (dict(slots_per_subarray=1), dict(density=1.0)):
        cfg = passloc.harness.ExperimentConfig(scenarios=[scenario], trials=3, snr_db=(25.0,),
                                               seed=3, g_theta=64, nf_n=16, nf_rings=2, **tie)
        records = passloc.harness.run_sweep(cfg).records
        assert all("tied-pilots" in r.flags for r in records), (tie, [r.flags for r in records])


def test_tied_pilots_flag_stays_off_at_the_default_configs():
    for scenario in ("mw", "sw", "sw2", "nf"):
        cfg = passloc.harness.ExperimentConfig(scenarios=[scenario], trials=4, snr_db=(25.0,),
                                               seed=11)
        assert not any("tied-pilots" in r.flags for r in passloc.harness.run_sweep(cfg).records)


@pytest.mark.parametrize("m, mode", [(8, "2d"), (3, "2d"), (4, "3d")])
def test_start_dictionaries_are_the_start_builds_shared_per_distance(region, radio, half_wave,
                                                                     m, mode):
    layout = build_mw_layout(region, m, 16, half_wave)
    cfg = EstimatorConfig(region=region, mode=mode, g_theta=64)
    start = start_dictionaries(layout, radio, cfg)
    built = [build_dp_dictionary(sub, float(r), cfg.grid, radio, dh=cfg.dh)
             for sub, r in zip(layout.subarrays, _start_distances(layout, cfg))]
    for s, b in zip(start, built, strict=True):
        assert s.r_param == b.r_param
        assert np.array_equal(s.atoms, b.atoms) and np.array_equal(s.cosines, b.cosines)
        assert not s.atoms.flags.writeable
    # subarrays at one start distance share one dictionary
    distinct = {d.r_param for d in start}
    assert len({id(d) for d in start}) == len(distinct)
    assert len(distinct) == {8: 4, 3: 2, 4: 2}[m]


# --- projectors and the closed-form fusion ------------------------------------


def test_projection_matrix_hand_values():
    assert np.allclose(projection_matrix(0.0, 1.0), [[1, 0], [0, 0]])
    assert np.allclose(projection_matrix(1.0, 1.0), [[0, 0], [0, 1]])
    p = projection_matrix(0.6, -1.0)
    u = np.array([0.6, -0.8])
    assert np.allclose(p @ u, 0.0, atol=1e-15)


def test_projection_matrix_idempotent_annihilating(rng):
    for _ in range(50):
        phi = rng.uniform(-1, 1)
        s = rng.choice([-1.0, 1.0])
        p = projection_matrix(phi, s)
        u = np.array([phi, s * np.sqrt(1 - phi * phi)])
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p @ u)) < 1e-12
        assert np.allclose(np.linalg.eigvalsh(p), [0.0, 1.0], atol=1e-12)
    with pytest.raises(ValueError):
        projection_matrix(1.2, 1.0)


def _true_bearings(refs_xy, q):
    refs_xy = np.asarray(refs_xy, dtype=float)
    delta = np.asarray(q) - refs_xy
    r = np.linalg.norm(delta, axis=1)
    return delta[:, 0] / r, np.where(delta[:, 1] >= 0, 1.0, -1.0)


def test_two_orthogonal_bearings_intersect_exactly():
    refs = np.array([[0.0, 10.0], [10.0, 0.0]])
    q, cost, lam_min = solve_position_ls(refs, [1.0, 0.0], [1.0, 1.0], epsilon=1e-9)
    assert np.allclose(q, [10.0, 10.0], atol=1e-6)
    assert cost < 1e-12
    assert lam_min == pytest.approx(1.0)


def test_parallel_bearings_are_degenerate():
    refs = np.array([[0.0, 0.0], [0.0, 5.0]])
    _, _, lam_min = solve_position_ls(refs, [1.0, 1.0], [1.0, 1.0])
    assert lam_min < 1e-9


def test_fusion_matches_local_grid_search(rng):
    """Closed form against a two-stage brute-force grid on the objective."""

    def objective(qxy, refs, phis, signs):
        cost = 0.0
        for vm, phi, s in zip(refs, phis, signs):
            p = projection_matrix(phi, s)
            d = qxy - vm
            cost += d @ p @ d
        return cost

    for _ in range(5):
        refs = rng.uniform(0, 30, size=(4, 2))
        truth = rng.uniform(5, 25, size=2)
        phis, signs = _true_bearings(refs, truth)
        phis = np.clip(phis + rng.normal(0, 0.02, size=4), -0.999, 0.999)
        q, _, _ = solve_position_ls(refs, phis, signs)

        # the objective is a strictly convex quadratic here, so checking a
        # local window around the candidate checks the global minimum
        best = None
        center = q
        for step, span in ((0.01, 1.0), (0.001, 0.02)):
            ax = np.arange(center[0] - span, center[0] + span + step / 2, step)
            ay = np.arange(center[1] - span, center[1] + span + step / 2, step)
            best = min(
                ((objective(np.array([x, y]), refs, phis, signs), x, y) for x in ax for y in ay),
            )
            center = np.array([best[1], best[2]])
        assert np.linalg.norm(q - center) < 2e-3


def test_fusion_stationarity(rng):
    # gradient of the objective is 2 * sum P_m (q - v_m); the regularizer
    # biases the gradient by O(eps * |q|), so keep eps small here
    for _ in range(20):
        refs = rng.uniform(0, 30, size=(5, 2))
        phis = rng.uniform(-0.99, 0.99, size=5)
        signs = rng.choice([-1.0, 1.0], size=5)
        q, _, _ = solve_position_ls(refs, phis, signs, epsilon=1e-12)
        grad = np.zeros(2)
        for vm, phi, s in zip(refs, phis, signs):
            grad += 2.0 * projection_matrix(phi, s) @ (q - vm)
        assert np.linalg.norm(grad) < 1e-8


def test_fusion_validation():
    with pytest.raises(ValueError):
        solve_position_ls([[0.0, 0.0]], [0.5, 0.5], [1.0])
    with pytest.raises(ValueError, match="one cosine per subarray"):
        resolve_signs([[0.0, 0.0], [5.0, 0.0], [9.0, 3.0]], [0.5])  # would broadcast unchecked


def test_sign_consistency_penalty_hand_case():
    refs = np.array([[0.0, 0.0], [5.0, 0.0]])
    assert sign_consistency_penalty(np.array([-1.0, 2.0]), refs, [0.5, -0.5]) == pytest.approx(
        0.25
    )
    assert sign_consistency_penalty(np.array([3.0, 2.0]), refs, [0.5, -0.5]) == 0.0


# --- sign enumeration ----------------------------------------------------------


def test_sign_enumeration_recovers_spread_geometry():
    refs = np.array([[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]])
    truth = np.array([21.0, 9.5])
    phis, signs = _true_bearings(refs, truth)
    fix = resolve_signs(refs, phis)
    assert np.linalg.norm(fix.position - truth) < 1e-6
    assert np.array_equal(fix.signs, signs)
    assert fix.cost_penalty == 0.0
    assert fix.flags == ()


def test_collinear_references_keep_mirror_ambiguity():
    refs = np.array([[0.0, 15.0], [15.0, 15.0], [30.0, 15.0]])
    truth = np.array([12.0, 11.0])
    phis, _ = _true_bearings(refs, truth)
    fix = resolve_signs(refs, phis)
    assert "ambiguous" in fix.flags
    # tie resolves to the negative-lateral side of the guide line
    assert fix.position[1] < 15.0
    assert abs(fix.position[1] - 15.0) == pytest.approx(abs(truth[1] - 15.0), abs=1e-6)
    assert abs(fix.position[0] - truth[0]) < 1e-6


def test_mirror_sign_flip_costs_identical(rng):
    for _ in range(20):
        refs = np.column_stack([rng.uniform(0, 30, 3), np.full(3, 15.0)])
        phis = rng.uniform(-0.9, 0.9, 3)
        signs = rng.choice([-1.0, 1.0], 3)
        qa, ca, _ = solve_position_ls(refs, phis, signs, epsilon=1e-12)
        qb, cb, _ = solve_position_ls(refs, phis, -signs, epsilon=1e-12)
        assert abs(ca - cb) < 1e-10 * max(1.0, abs(ca))
        assert qa[0] == pytest.approx(qb[0], abs=1e-6)
        assert qa[1] - 15.0 == pytest.approx(-(qb[1] - 15.0), abs=1e-6)


def test_single_subarray_is_under_determined():
    fix = resolve_signs(np.array([[15.0, 15.0]]), [0.4])
    assert "under-determined" in fix.flags
    assert "ill-conditioned" in fix.flags
    assert fix.cost_ls < 1e-12


def test_forty_subarrays_resolve_from_one_candidate_per_band():
    rng = np.random.default_rng(3)
    refs = rng.uniform(0, 30, (40, 2))
    truth = np.array([13.0, 17.5])
    phis, signs = _true_bearings(refs, truth)
    with mock.patch.object(passloc.estimator, "_fuse_candidates",
                           wraps=passloc.estimator._fuse_candidates) as scorer:
        fix = resolve_signs(refs, phis, bounds=((0.0, 30.0), (0.0, 30.0)))
    (_, _, stacked, _), _ = scorer.call_args
    assert stacked.shape == (41, 40)  # 40 distinct heights, 2^40 sign vectors
    assert np.linalg.norm(fix.position - truth) < 1e-6
    assert np.array_equal(fix.signs, signs)


def test_feasibility_box_overrides_tie_order():
    refs = np.array([[0.0, 0.0], [10.0, 0.0]])
    truth = np.array([5.0, 3.0])
    phis, _ = _true_bearings(refs, truth)
    free = resolve_signs(refs, phis)
    assert free.position[1] < 0.0  # mirror tie, settled on the negative-y side
    boxed = resolve_signs(refs, phis, bounds=((0.0, 10.0), (0.0, 10.0)))
    assert np.linalg.norm(boxed.position - truth) < 1e-6
    assert np.array_equal(boxed.signs, [1.0, 1.0])
    # a box covering both mirror basins keeps the negative-y side
    wide = resolve_signs(refs, phis, bounds=((0.0, 10.0), (-10.0, 10.0)))
    assert wide.position[1] < 0.0


def _loop_solve(v, phis, signs, epsilon=1e-9):
    """The single-candidate projection least-squares solve, one scalar system."""
    u = np.column_stack([phis, signs * np.sqrt(np.clip(1.0 - phis * phis, 0.0, None))])
    a = v.shape[0] * np.eye(2) - u.T @ u
    b = (v - u * np.sum(u * v, axis=1)[:, None]).sum(axis=0)
    q = np.linalg.solve(a + epsilon * np.eye(2), b)
    dif = q[None, :] - v
    cost = float(np.sum(np.sum(dif * dif, axis=1) - np.sum(u * dif, axis=1) ** 2))
    return q, cost, float(np.linalg.eigvalsh(a)[0])


def _band_signs(ys):
    """The y-band sign vectors, lowest band first: +1 exactly for the anchors below the band.

    Heights less than 1e-9 apart lie on one line.
    """
    lines = []
    for y in sorted(set(ys.tolist())):
        if lines and y - lines[-1][-1] < 1e-9:
            lines[-1].append(y)
        else:
            lines.append([y])
    line_of = {y: k for k, line in enumerate(lines) for y in line}
    return [np.array([1.0 if line_of[y] < k else -1.0 for y in ys.tolist()])
            for k in range(len(lines) + 1)]


def _loop_candidates(refs, phis):
    """Every y-band candidate as (signs, fix, cost, lambda_min), lowest first.

    On one guide line only the lower band is solved; the upper one is its
    reflection across the line, and the pair is ordered by the fix's y.
    """
    ys = refs[:, 1]
    if np.ptp(ys) >= 1e-9:
        return [(s, *solve_position_ls(refs, phis, s)) for s in _band_signs(ys)]
    s = -np.ones(len(ys))
    q, cost, lam_min = solve_position_ls(refs, phis, s)
    pair = [(s, q, cost, lam_min), (-s, np.array([q[0], 2.0 * ys.min() - q[1]]), cost, lam_min)]
    return sorted(pair, key=lambda cand: cand[1][1])


def _loop_ranks(refs, phis, bounds):
    """Every y-band candidate, lowest first, with its (outside box, cost) rank."""
    out = []
    for s, q, cost_ls, lam_min in _loop_candidates(refs, phis):
        cost_pen = float(sign_consistency_penalty(q, refs, phis))
        outside = False
        if bounds is not None:
            (x_lo, x_hi), (y_lo, y_hi) = bounds
            outside = not (x_lo <= q[0] <= x_hi and y_lo <= q[1] <= y_hi)
        out.append(((outside, cost_ls + cost_pen), s, q, cost_ls, cost_pen, lam_min))
    return out


def _loop_resolve(refs, phis, bounds):
    """The per-candidate reference: the first minimum of the ranks."""
    best = None
    for cand in _loop_ranks(refs, phis, bounds):
        if best is None or cand[0] < best[0]:
            best = cand
    return best


@st.composite
def _fusions(draw, min_m=1):
    """Anchors, cosines and an optional box; collinear rows and exact mirrors included."""
    m = draw(st.integers(min_m, 10))
    kind = draw(st.sampled_from(["spread", "collinear", "mw", "mirror"]))
    coord = st.floats(0.0, 30.0, allow_nan=False)
    xs = np.array(draw(st.lists(coord, min_size=m, max_size=m)))
    ys = np.array(draw(st.lists(coord, min_size=m, max_size=m)))
    if kind == "collinear":
        ys[:] = ys[0]
    elif kind == "mirror":  # a common guide line and exact bearings: mirror candidates tie
        ys[:] = 15.0
    elif kind == "mw":
        xs[:] = 0.0
    refs = np.column_stack([xs, ys])
    truth = np.array([draw(coord), draw(coord)])
    delta = truth - refs
    r = np.linalg.norm(delta, axis=1)
    phis = np.where(r > 0.0, delta[:, 0] / np.where(r > 0.0, r, 1.0), 0.0)
    if kind != "mirror" and draw(st.booleans()):
        noise = draw(st.lists(st.floats(-0.05, 0.05), min_size=m, max_size=m))
        phis = np.clip(phis + np.array(noise), -1.0, 1.0)
    bounds = draw(st.sampled_from([None, ((-1.0, 31.0), (-1.0, 31.0)), ((0.0, 30.0), (15.0, 30.0))]))
    return refs, phis, bounds


@settings(max_examples=150, deadline=None)
@given(case=_fusions(), draw_signs=st.data())
def test_single_solve_matches_the_scalar_system_bit_for_bit(case, draw_signs):
    refs, phis, _ = case
    signs = np.array(draw_signs.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(phis),
                                              max_size=len(phis))))
    q, cost, lam_min = solve_position_ls(refs, phis, signs)
    q_ref, cost_ref, lam_ref = _loop_solve(refs, phis, signs)
    assert q.tobytes() == q_ref.tobytes()
    assert (cost, lam_min) == (cost_ref, lam_ref)


@settings(max_examples=100, deadline=None)
@given(case=_fusions())
def test_batched_signs_equal_the_candidate_loop_bit_for_bit(case):
    """The stacked solve of the y-bands keeps the loop's winner, bits and tie order."""
    refs, phis, bounds = case
    fix = resolve_signs(refs, phis, bounds)
    _, signs, q, cost_ls, cost_pen, lam_min = _loop_resolve(refs, phis, bounds)
    assert fix.signs.tobytes() == signs.tobytes()
    assert fix.position.tobytes() == q.tobytes()
    assert (fix.cost_ls, fix.cost_penalty, fix.lambda_min) == (cost_ls, cost_pen, lam_min)
    collinear = np.ptp(refs[:, 1]) < 1e-9
    flags = [("under-determined", len(phis) == 1),
             ("ill-conditioned", lam_min < passloc.estimator.ILL_CONDITION_TOL),
             ("ambiguous", collinear)]
    assert fix.flags == tuple(name for name, fired in flags if fired)


def _assume_decisive(refs, phis, bounds):
    """Skip draws whose winner a small change in the costs or fixes could flip.

    The eps-regularized solve pulls a fix toward the origin by about
    eps |q| / lambda_min, which moves costs (m^2, 30 m layout) by up to ~1e-8,
    so only a runner-up more than 1e-6 away, relative and at least 1 m^2
    scale, is decisive. No candidate fix may lie near a box edge either,
    where rounding could move it across.
    """
    cands = _loop_ranks(refs, phis, bounds)
    ranks = sorted(cand[0] + (i,) for i, cand in enumerate(cands))
    (out0, c0, _), (out1, c1, _) = ranks[0], ranks[1]
    assume(out0 != out1 or abs(c1 - c0) > 1e-6 * max(abs(c0), 1.0))
    if bounds is not None:
        for _, _, q, *_ in cands:
            edges = np.abs(np.subtract.outer(q, np.array(bounds)))
            assume(np.min(edges[[0, 1], [0, 1]]) > 1e-6)


@settings(max_examples=60, deadline=None)
@given(case=_fusions(min_m=2), shift=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
def test_translating_anchors_and_box_translates_the_fix(case, shift):
    refs, phis, bounds = case
    t = np.array(shift)
    fix = resolve_signs(refs, phis, bounds)
    # eps-regularized solves: a fix moves by ~ eps / lambda_min under translation, and
    # a rival's move can carry it into the box, so every candidate must be well posed
    assume(min(cand[-1] for cand in _loop_ranks(refs, phis, bounds)) > 1e-2)
    _assume_decisive(refs, phis, bounds)  # the eps pull changes under translation
    if bounds is not None:
        bounds_t = tuple((lo + ti, hi + ti) for (lo, hi), ti in zip(bounds, t))
    else:
        bounds_t = None
    moved = resolve_signs(refs + t, phis, bounds_t)
    tol = 1e-6 * (1.0 + np.linalg.norm(t) + np.linalg.norm(fix.position))
    assert np.array_equal(moved.signs, fix.signs)
    assert np.linalg.norm(moved.position - (fix.position + t)) < tol
    q, cost, _ = solve_position_ls(refs, phis, fix.signs)
    q_t, cost_t, _ = solve_position_ls(refs + t, phis, fix.signs)
    assert np.linalg.norm(q_t - (q + t)) < tol
    assert cost_t == pytest.approx(cost, rel=1e-6, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(case=_fusions(min_m=2), data=st.data())
def test_permuting_subarrays_permutes_the_signs(case, data):
    """Reordering anchors and cosines together reorders the signs and keeps the fix."""
    refs, phis, bounds = case
    p = np.array(data.draw(st.permutations(range(len(phis)))))
    _assume_decisive(refs, phis, bounds)  # the order of the sums moves costs by rounding
    fix = resolve_signs(refs, phis, bounds)
    moved = resolve_signs(refs[p], phis[p], bounds)
    assert np.array_equal(moved.signs, fix.signs[p])
    assume(fix.lambda_min > 1e-2)  # reordered sums move the fix by rounding / lambda_min
    tol = 1e-9 * (1.0 + np.linalg.norm(fix.position))
    assert np.linalg.norm(moved.position - fix.position) < tol
    for name in ("cost_ls", "cost_penalty", "lambda_min"):
        assert getattr(moved, name) == pytest.approx(getattr(fix, name), rel=1e-9, abs=1e-9), name
    q, cost, lam_min = solve_position_ls(refs, phis, fix.signs)
    q_p, cost_p, lam_p = solve_position_ls(refs[p], phis[p], fix.signs[p])
    assert np.linalg.norm(q_p - q) < tol
    assert (cost_p, lam_p) == pytest.approx((cost, lam_min), rel=1e-9, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 8), truth=st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0)),
       shift=st.floats(-50.0, 50.0), data=st.data())
def test_mw_winner_signs_match_its_own_fix(region, half_wave, m, truth, shift, data):
    """With exact bearings, the winning band is the one its fix lies in, in any order or y-shift."""
    refs = build_mw_layout(region, m, 32, half_wave).reference_xy
    truth = np.array(truth)
    assume(np.min(np.abs(truth - refs)) > 0.1)  # off every anchor's x and y line
    p = np.array(data.draw(st.permutations(range(m))))
    t = np.array([0.0, shift])
    refs, truth = refs[p] + t, truth + t
    phis, _ = _true_bearings(refs, truth)
    bounds = ((-1.0, 31.0), (-1.0 + shift, 31.0 + shift))  # fuse's slack box, shifted
    fix = resolve_signs(refs, phis, bounds)
    assert np.array_equal(fix.signs, np.sign(fix.position[1] - refs[:, 1]))


@settings(max_examples=80, deadline=None)
@given(case=_fusions(), y0=st.floats(-20.0, 50.0))
def test_single_guide_line_takes_the_lower_mirror_unless_boxed_out(case, y0):
    """On one guide line the fix lies at y <= y_0 unless the box excludes it, admitting the mirror."""
    refs, phis, bounds = case
    refs = np.column_stack([refs[:, 0], np.full(len(phis), y0)])
    fix = resolve_signs(refs, phis, bounds)
    assert "ambiguous" in fix.flags
    q, mirror = fix.position, np.array([fix.position[0], 2.0 * y0 - fix.position[1]])

    def inside(point):
        return bounds is None or all(lo <= c <= hi for c, (lo, hi) in zip(point, bounds))

    assert q[1] <= y0 or (inside(q) and not inside(mirror))
    lower = resolve_signs(refs, phis)  # no box: always the lower mirror
    assert lower.position[1] <= y0
    assert lower.cost_ls == fix.cost_ls and lower.position[0] == fix.position[0]


# --- height-resolved fusion -----------------------------------------------------


def _slant_bearings(refs, q):
    delta = np.asarray(q) - np.asarray(refs)
    return delta[:, 0] / np.linalg.norm(delta, axis=1)


def test_3d_fusion_recovers_position_and_height(region):
    refs = np.array([[0.0, 0.0, 4.0], [30.0, 0.0, 4.0], [0.0, 30.0, 4.0], [30.0, 30.0, 4.0]])
    truth = np.array([12.0, 7.0, 1.5])
    fix = solve_position_3d(refs, _slant_bearings(refs, truth), bounds=((0, 30), (0, 30)))
    assert np.linalg.norm(fix.position - truth) < 1e-3
    assert fix.flags == ()


def test_3d_fusion_zero_gap_returns_pa_height():
    refs = np.array([[0.0, 0.0, 4.0], [30.0, 0.0, 4.0], [0.0, 30.0, 4.0]])
    truth = np.array([11.0, 9.0, 4.0])  # target at the waveguide height
    fix = solve_position_3d(refs, _slant_bearings(refs, truth), bounds=((0, 30), (0, 30)))
    assert fix.position[2] == 4.0
    assert fix.z_aux == 0.0
    assert np.linalg.norm(fix.position[:2] - truth[:2]) < 1e-6


def test_3d_fusion_flags_collinear_row():
    """One guide line: flagged, and the fix takes the y <= y_0 mirror unless the box excludes it."""
    refs = np.array([[0.0, 15.0, 4.0], [15.0, 15.0, 4.0], [30.0, 15.0, 4.0]])
    truth = np.array([12.0, 19.0, 1.0])
    phis = _slant_bearings(refs, truth)
    low = solve_position_3d(refs, phis, bounds=((0, 30), (0, 30)))
    high = solve_position_3d(refs, phis, bounds=((0, 30), (15, 30)))  # excludes y < 15
    assert low.position[1] <= 15.0 <= high.position[1]
    for fix in (low, high):  # one line fixes only x and the radius around it
        x, y, h = fix.position
        assert x == pytest.approx(12.0, abs=1e-3)
        assert np.hypot(y - 15.0, 4.0 - h) == pytest.approx(5.0, abs=1e-3)
        assert "ambiguous" in fix.flags


def test_3d_fuse_moves_a_single_line_fix_into_the_height_range_along_its_circle(half_wave):
    region = ServiceRegion(30.0, 30.0, 6.0, (0.0, 3.0))
    layout = build_sw_layout(region, 3, 32, half_wave)
    truth = np.array([12.0, 11.0, 1.0])
    phis = _slant_bearings(layout.reference_positions, truth)
    assert solve_position_3d(layout.reference_positions, phis, ((0, 30), (0, 30))).position[2] > 3.0
    directions = [DirectionEstimate(float(c), 0, 1.0, 1.0) for c in phis]
    iterate, _ = fuse(directions, layout, EstimatorConfig(region=region, mode="3d"))
    x, y, h = iterate.position
    assert 0.0 <= h <= 3.0 and y <= 15.0
    assert x == pytest.approx(12.0, abs=1e-3)
    assert np.hypot(y - 15.0, 6.0 - h) == pytest.approx(np.hypot(4.0, 5.0), abs=1e-3)
    assert "ambiguous" in iterate.flags


def test_3d_fusion_validation():
    box = ((0, 30), (0, 30))
    with pytest.raises(ValueError):
        solve_position_3d(np.zeros((2, 3)), [0.1, 0.2], box)
    refs = np.array([[0.0, 0.0, 4.0], [1.0, 0.0, 3.0], [0.0, 1.0, 4.0]])
    with pytest.raises(ValueError):
        solve_position_3d(refs, [0.1, 0.2, 0.3], box)


# --- joint loop ------------------------------------------------------------------


def _run_once(region, radio, half_wave, *, m=3, n=32, l=0, seed=0, snr=None, **cfg_kw):
    lay = build_mw_layout(region, m, n, half_wave)
    scene = sample_scene(region, l=l, rng_seed=seed)
    paths = synthesize_paths(lay, scene, radio)
    sch = make_schedule(lay, total_slots=64, rng_seed=seed)
    ms = measure(lay, sch, paths, radio, snr_db=snr, rng_seed=seed)
    cfg = EstimatorConfig(region=region, num_paths=l + 1, **cfg_kw)
    return scene, run_omp_gcl(ms, lay, radio, cfg, start_dictionaries(lay, radio, cfg))


def test_joint_loop_noiseless_user_recovery(region, radio, half_wave):
    for seed in range(5):
        scene, result = _run_once(region, radio, half_wave, seed=seed, g_theta=2048)
        err = np.linalg.norm(result.paths[0].position[:2] - scene.user[:2])
        assert err < 1e-2, (seed, err)
        assert not result.paths[0].absent


def test_joint_loop_refinement_never_hurts(region, radio, half_wave, monkeypatch):
    """More anchor-distance refinements keep or shrink the error (median
    over a batch; polish replaced by the identity to isolate the iteration
    effect)."""
    monkeypatch.setattr(passloc.estimator, "polish", lambda position, *a: (position, {}))
    errs = {1: [], 3: []}
    for seed in range(40):
        for iters in (1, 3):
            scene, result = _run_once(
                region, radio, half_wave, seed=seed,
                max_outer_iters=iters, g_theta=1024,
            )
            errs[iters].append(np.linalg.norm(result.paths[0].position[:2] - scene.user[:2]))
    assert np.median(errs[3]) <= np.median(errs[1]) + 1e-9


def test_joint_loop_path_strength_ordering(region, radio, half_wave):
    """Selection-stage gains shrink with path order: the scattered atom
    absorbs the extra propagation leg, so its matched gain is far below
    the direct path's."""
    for seed in (0, 3):
        scene, result = _run_once(region, radio, half_wave, l=1, seed=seed, g_theta=2048)
        mags = [
            np.mean([abs(d.coefficient) for d in p.directions])
            for p in result.paths
            if not p.absent
        ]
        assert len(mags) == 2
        assert mags[0] > 10.0 * mags[1]


def test_joint_loop_flags_absent_second_path(region, radio, half_wave):
    lay = build_mw_layout(region, 3, 32, half_wave)
    scene = sample_scene(region, l=0, rng_seed=1)
    paths = synthesize_paths(lay, scene, radio)
    sch = make_schedule(lay, total_slots=64, rng_seed=1)
    ms = measure(lay, sch, paths, radio, snr_db=None, rng_seed=1)
    cfg = EstimatorConfig(region=region, num_paths=2)
    result = run_omp_gcl(ms, lay, radio, cfg, start_dictionaries(lay, radio, cfg))
    assert result.paths[1].absent
    assert "path-absent" in result.flags


def _estimate_path_calls(region, radio, half_wave, monkeypatch):
    """run_omp_gcl for three paths of a noiseless l=0 scene, and the arguments of each
    estimate_path call, its residuals copied as they were on entry."""
    lay = build_mw_layout(region, 3, 32, half_wave)
    scene = sample_scene(region, l=0, rng_seed=1)
    sch = make_schedule(lay, total_slots=64, rng_seed=1)
    ms = measure(lay, sch, synthesize_paths(lay, scene, radio), radio, snr_db=None, rng_seed=1)
    cfg = EstimatorConfig(region=region, num_paths=3)
    real, calls = passloc.estimator.estimate_path, []

    def counted(l, user, ref_strength, residuals, **setup):
        calls.append((l, user, ref_strength, [r.copy() for r in residuals], setup))
        return real(l, user, ref_strength, residuals, **setup)

    monkeypatch.setattr(passloc.estimator, "estimate_path", counted)
    return run_omp_gcl(ms, lay, radio, cfg, start_dictionaries(lay, radio, cfg)), calls


def test_joint_loop_estimates_paths_up_to_the_first_absent_one(region, radio, half_wave,
                                                               monkeypatch):
    result, calls = _estimate_path_calls(region, radio, half_wave, monkeypatch)
    assert [c[0] for c in calls] == [0, 1]
    assert [p.absent for p in result.paths] == [False, True]


def test_estimate_path_peels_a_present_path_from_the_residuals(region, radio, half_wave,
                                                               monkeypatch):
    _, calls = _estimate_path_calls(region, radio, half_wave, monkeypatch)
    l, user, ref_strength, residuals, setup = calls[0]
    before = [r.copy() for r in residuals]
    path, strength = estimate_path(l, user, ref_strength, residuals, **setup)
    assert not path.absent and strength > 0.0
    for w_m, y, res, comp in zip(setup["w_list"], before, residuals, path.components):
        np.testing.assert_allclose(y - res, w_m @ comp, rtol=1e-12)


def test_estimate_path_leaves_the_residuals_alone_for_an_absent_path(region, radio, half_wave,
                                                                     monkeypatch):
    _, calls = _estimate_path_calls(region, radio, half_wave, monkeypatch)
    l, user, ref_strength, residuals, setup = calls[1]
    before = [r.copy() for r in residuals]
    path, _ = estimate_path(l, user, ref_strength, residuals, **setup)
    assert path.absent
    assert [r.tobytes() for r in residuals] == [r.tobytes() for r in before]
    assert not path.coefficients.any() and not path.components.any()


def test_joint_loop_rejects_mismatched_layout(region, radio, half_wave):
    lay3 = build_mw_layout(region, 3, 32, half_wave)
    lay2 = build_mw_layout(region, 2, 32, half_wave)
    scene = sample_scene(region, l=0, rng_seed=0)
    sch = make_schedule(lay3, total_slots=64, rng_seed=0)
    ms = measure(lay3, sch, synthesize_paths(lay3, scene, radio), radio, None)
    cfg = EstimatorConfig(region=region)
    with pytest.raises(ValueError):
        run_omp_gcl(ms, lay2, radio, cfg, start_dictionaries(lay2, radio, cfg))
    with pytest.raises(ValueError, match="start dictionaries"):
        run_omp_gcl(ms, lay3, radio, cfg, start_dictionaries(lay2, radio, cfg))
    with pytest.raises(ValueError, match="start dictionaries"):
        run_omp_gcl(ms, lay3, radio, cfg,
                    start_dictionaries(lay3, radio, dataclasses.replace(cfg, mode="3d")))
    with pytest.raises(ValueError, match="start dictionaries"):
        run_omp_gcl(ms, lay3, radio, cfg,
                    start_dictionaries(lay3, radio, dataclasses.replace(cfg, g_theta=512)))


def test_joint_loop_trace_records_iterations(region, radio, half_wave):
    scene, result = _run_once(region, radio, half_wave, seed=2)
    trace = result.paths[0].trace
    assert len(trace) >= 1
    assert any("position" in t for t in trace)
    for t in trace[:-1]:  # each iterate: the columns each subarray's match scored
        assert len(t["columns_scored"]) == 3
        assert all(129 <= c < 1024 for c in t["columns_scored"])  # S = 8: 129 coarse columns


def test_joint_loop_3d_smoke(radio, half_wave):
    tall = ServiceRegion(30.0, 30.0, 6.0, h_range=(0.0, 6.0))
    lay = build_mw_layout(tall, 4, 32, half_wave)
    scene = sample_scene(tall, l=0, rng_seed=7, mode="3d")
    sch = make_schedule(lay, total_slots=64, rng_seed=7)
    ms = measure(lay, sch, synthesize_paths(lay, scene, radio), radio, None, rng_seed=7)
    cfg = EstimatorConfig(region=tall, mode="3d", g_theta=2048)
    result = run_omp_gcl(ms, lay, radio, cfg, start_dictionaries(lay, radio, cfg))
    assert np.linalg.norm(result.paths[0].position - scene.user) < 0.1


@pytest.mark.parametrize("mode", ["2d", "3d"])
@pytest.mark.parametrize("build", [build_sw_layout, build_mw_layout])
def test_polish_keeps_an_ambiguous_fix_on_its_side_of_the_guide(radio, half_wave, monkeypatch,
                                                               mode, build):
    tall = ServiceRegion(30.0, 30.0, 6.0, h_range=(0.0, 3.0))
    lay = build(tall, 3, 16, half_wave)
    cfg = EstimatorConfig(region=tall, mode=mode, num_paths=2, g_theta=256)
    start = start_dictionaries(lay, radio, cfg)
    real, seen = passloc.estimator.polish, []

    def spy(position, *args):
        seen.append((position[1], args[-1]))
        return real(position, *args)

    monkeypatch.setattr(passloc.estimator, "polish", spy)
    for seed in range(3):
        scene = sample_scene(tall, l=1, rng_seed=seed, mode=mode)
        sch = make_schedule(lay, total_slots=96, rng_seed=seed)
        ms = measure(lay, sch, synthesize_paths(lay, scene, radio), radio, 25.0, rng_seed=seed)
        run_omp_gcl(ms, lay, radio, cfg, start)
    assert seen
    for y, box in seen:
        if build is build_sw_layout:  # one guide line at y = 15
            assert box[1] == ((0.0, 15.0) if y <= 15.0 else (15.0, 30.0))
        else:
            assert box[1] == (0.0, 30.0)
        assert box[2] == (None if mode == "2d" else (0.0, 3.0))


# --- refit gain, arbitration, polish and peel on their own ---------------------------


def _bowl(peak, calls=None, flat=()):
    """A synthetic refit slope: the concave gain 1 - ||q - peak||^2, blind to the
    coordinates in ``flat``, with its gradient and curvature along ``dims``. Polish
    stops once a step predicts a gain below POLISH_TOL, which on this bowl is within
    _REACHED of the peak; callers start within 1 of it, where the gain is positive."""
    live = np.array([d not in flat for d in range(3)])

    def slope(q, dims):
        if calls is not None:
            calls.append(np.array(q))
        dif = np.where(live, np.asarray(q) - peak, 0.0)
        return 1.0 - float(dif @ dif), -2.0 * dif[dims], np.diag(2.0 * live[dims])
    return slope


_REACHED = np.sqrt(POLISH_TOL)
_BOX = ((0.0, 10.0), (0.0, 10.0), (0.0, 3.0))


def test_polish_climbs_a_concave_gain_to_its_peak_and_keeps_frozen_coordinates():
    start, peak = np.array([5.8, 4.6, 1.5]), np.array([6.3, 4.1, 2.0])
    for height, free in ((None, [0, 1]), ((0.0, 3.0), [0, 1, 2])):
        q, stats = polish(start, _bowl(peak), _BOX[:2] + (height,))
        assert np.all(np.abs(q[free] - peak[free]) < _REACHED)
        assert height is not None or q[2] == 1.5  # the frozen height would gain by moving too
        assert stats["steps"] >= 1 and not stats["capped"]
    assert np.array_equal(start, [5.8, 4.6, 1.5])  # the caller's array is left alone


def test_polish_clamps_a_start_outside_its_box_and_scores_it_afresh():
    calls = []
    q, stats = polish(np.array([12.0, 5.0, 4.0]), _bowl(np.array([9.5, 5.0, 2.4]), calls), _BOX)
    assert np.array_equal(calls[0], [10.0, 5.0, 3.0])
    assert np.all(np.abs(q - [9.5, 5.0, 2.4]) < _REACHED)
    assert stats["evaluations"] == len(calls) < POLISH_MAX_EVALS


def test_polish_leaves_the_start_of_a_flat_gain_unchanged():
    calls = []
    start = np.array([3.0, 7.0, 0.5])
    q, stats = polish(start, _bowl(start, calls, flat=(0, 1, 2)), _BOX)
    assert np.array_equal(q, start)
    # the start, then one move of POLISH_STEP either way along each coordinate
    assert stats == {"steps": 0, "evaluations": 7, "capped": False} and len(calls) == 7
    assert sorted(np.abs(c - start).sum() for c in calls) == pytest.approx([0.0] + [POLISH_STEP] * 6)


def test_polish_does_not_move_along_a_coordinate_the_gain_ignores():
    """On one guide line the gain is constant along the circle around it: its curvature
    is singular there, and neither a coordinate move nor a damped step takes that way."""
    start, peak = np.array([5.8, 7.0, 1.5]), np.array([6.3, 4.1, 2.0])
    q, _ = polish(start, _bowl(peak, flat=(1,)), _BOX)
    assert q[1] == 7.0
    assert np.all(np.abs(q[[0, 2]] - peak[[0, 2]]) < _REACHED)


def _slope_case(radio, half_wave, mode, kind):
    """A 25 dB single-path residual, the path's true point and its refit model."""
    tall = ServiceRegion(30.0, 30.0, 6.0, h_range=(0.0, 3.0))
    lay = build_mw_layout(tall, 4, 16, half_wave)
    scene = sample_scene(tall, l=1, rng_seed=3, mode=mode)
    sch = make_schedule(lay, total_slots=128, rng_seed=3)
    path = 0 if kind == "los" else 1
    clean = synthesize_paths(lay, scene, radio)[:, path:path + 1]  # (M, 1, N)
    ms = measure(lay, sch, clean, radio, 25.0, rng_seed=3)
    model = dict(kind=kind, user=None if kind == "los" else scene.user, layout=lay,
                 radio=radio, w_list=ms.w, residuals=ms.y)
    return scene.points[path], [0, 1] if mode == "2d" else [0, 1, 2], model


@pytest.mark.parametrize("mode", ["2d", "3d"])
@pytest.mark.parametrize("kind", ["los", "nlos"])
def test_refit_slope_matches_central_differences_of_the_refit_gain(radio, half_wave, mode, kind):
    truth, dims, model = _slope_case(radio, half_wave, mode, kind)

    def gain(q):
        return refit_slope(q, [], **model)[0]

    q = truth + np.array([0.03, -0.02, 0.01 if mode == "3d" else 0.0])
    g, grad, _ = refit_slope(q, dims, **model)
    fits = rank_one_fit(q, model["kind"], model["user"], model["layout"], model["radio"],
                        model["w_list"], model["residuals"])
    removed = sum(abs(np.vdot(t, y)) ** 2 / np.vdot(t, t).real
                  for (_, t, _), y in zip(fits, model["residuals"]))
    assert g == pytest.approx(gain(q), rel=1e-12) and g == pytest.approx(removed, rel=1e-12)
    h, axes = 1e-6, np.eye(3)[dims]
    fd = np.array([(gain(q + h * e) - gain(q - h * e)) / (2.0 * h) for e in axes])
    np.testing.assert_allclose(grad, fd, rtol=0.0, atol=1e-5 * np.abs(fd).max())

    # near the truth the fit explains the residual up to noise, so the Gauss-Newton
    # curvature is the negative Hessian of the gain
    q = truth + np.array([0.002, -0.001, 0.001 if mode == "3d" else 0.0])
    _, _, curv = refit_slope(q, dims, **model)
    h = 1e-4
    hess = np.array([[(gain(q + h * a + h * b) - gain(q + h * a - h * b)
                       - gain(q - h * a + h * b) + gain(q - h * a - h * b)) / (4.0 * h * h)
                      for b in axes] for a in axes])
    assert np.array_equal(curv, curv.T)
    assert np.linalg.eigvalsh(curv)[0] >= -1e-12 * np.abs(curv).max()
    assert np.linalg.norm(curv + hess) <= 0.1 * np.linalg.norm(hess)


def test_polish_trace_reports_its_steps_and_evaluations_within_the_cap(region, radio, half_wave):
    _, result = _run_once(region, radio, half_wave, l=1, seed=4, snr=25.0, g_theta=256)
    polished = [t for p in result.paths if not p.absent for t in p.trace if "polish" in t]
    assert len(polished) == 2
    for entry in polished:
        assert {"steps", "evaluations", "capped"} <= entry.keys()
        assert 1 <= entry["evaluations"] <= POLISH_MAX_EVALS
        assert 0 <= entry["steps"] < entry["evaluations"]
        assert entry["capped"] == (entry["evaluations"] == POLISH_MAX_EVALS)


def test_arbitrate_keeps_the_earliest_of_tied_largest_gains():
    def iterate(x):
        return mock.Mock(position=np.array([x, 0.0, 0.0]))
    iterates = [iterate(x) for x in (1.0, 3.0, 3.0, 2.0)]
    chosen, best = arbitrate(iterates, lambda q, dims: (-abs(q[0] - 3.0) + 5.0, None, None))
    assert chosen is iterates[1] and best == 5.0


def test_peeling_the_true_path_removes_the_refit_gain(region, radio, half_wave):
    """At the true position of a noiseless single path the fit explains every pilot."""
    lay = build_mw_layout(region, 3, 16, half_wave)
    scene = sample_scene(region, l=0, rng_seed=8)
    sch = make_schedule(lay, total_slots=32, rng_seed=8)
    ms = measure(lay, sch, synthesize_paths(lay, scene, radio), radio, None)
    residuals = [y.copy() for y in ms.y]
    fits = rank_one_fit(scene.user, "los", None, lay, radio, ms.w, residuals)
    energy = sum(float(np.vdot(y, y).real) for y in ms.y)
    gain = refit_slope(scene.user, [], "los", None, lay, radio, ms.w, residuals)[0]
    assert gain == pytest.approx(energy, rel=1e-10)
    coeffs, components = peel(fits, residuals)
    assert np.allclose(coeffs, 1.0, rtol=1e-10)
    assert np.allclose(components, channel_vector(synthesize_paths(lay, scene, radio)),
                       rtol=1e-10, atol=0.0)
    assert all(np.linalg.norm(r) < 1e-10 * np.linalg.norm(y) for r, y in zip(residuals, ms.y))


def test_subtracting_direct_component_leaves_scattered_part(region, radio, half_wave):
    lay = build_mw_layout(region, 2, 16, half_wave)
    scene = sample_scene(region, l=1, rng_seed=4)
    paths = synthesize_paths(lay, scene, radio)
    sch = make_schedule(lay, total_slots=32, rng_seed=4)
    ms = measure(lay, sch, paths, radio, snr_db=None)
    for m in range(2):
        left = ms.y[m] - ms.w[m] @ paths[m, 0]
        right = ms.w[m] @ paths[m, 1]
        assert np.allclose(left, right, rtol=1e-10, atol=1e-18)


# --- channel reconstruction -------------------------------------------------------


def test_reconstruction_from_truth_is_exact(region, radio, half_wave):
    lay = build_mw_layout(region, 2, 16, half_wave)
    scene = sample_scene(region, l=2, rng_seed=5)
    paths = synthesize_paths(lay, scene, radio)
    for m, sub in enumerate(lay.subarrays):
        h = channel_vector(point_responses(sub.pa_positions, scene.points, radio))
        assert np.array_equal(h, channel_vector(paths[m]))


def test_reconstruction_phase_sensitivity_to_range(radio):
    # a 1 cm range error rotates the element phase by wavenumber * 0.01
    pa = np.array([[0.0, 0.0, 0.0]])
    h1 = channel_vector(point_responses(pa, [[5.0, 0.0, 0.0]], radio))
    h2 = channel_vector(point_responses(pa, [[5.01, 0.0, 0.0]], radio))
    got = np.angle(h2[0] * np.conj(h1[0]))
    want = np.angle(np.exp(-1j * radio.wavenumber * 0.01))
    assert got == pytest.approx(want, abs=1e-6)
    assert abs(h2[0]) / abs(h1[0]) == pytest.approx(5.0 / 5.01, rel=1e-12)


# --- polar baseline ----------------------------------------------------------------


def _polar_setup(region, radio, half_wave, user_xy, rings, g=64, slots=48, seed=0):
    lay = custom_layout(region, Structure.MW, [[0.0, 15.0]], 32, half_wave)
    scene = Scene(np.array([user_xy[0], user_xy[1], 0.0]), np.empty((0, 3)))
    paths = synthesize_paths(lay, scene, radio)
    sch = make_schedule(lay, total_slots=slots, rng_seed=seed)
    ms = measure(lay, sch, paths, radio, snr_db=None, rng_seed=seed)
    cfg = EstimatorConfig(region=region, g_theta=g)
    return lay, scene, ms, cfg


def test_polar_baseline_exact_on_joint_grid(region, radio, half_wave):
    rings = np.array([5.0, 8.0, 12.0])
    grid = AngleGrid.uniform_cosine(64)
    c = grid.values[40]
    r = 8.0
    # place the user on the negative-y side, matching the reported convention
    user = np.array([0.0 + r * c, 15.0 - r * np.sqrt(1 - c * c)])
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, user, rings)
    result = run_polar_baseline(ms, lay, radio, cfg, polar_dictionary(lay, radio, cfg, rings))
    assert np.linalg.norm(result.paths[0].position[:2] - user) < 1e-9
    assert "ambiguous" in result.flags
    assert "under-determined" in result.flags


def test_polar_baseline_off_ring_error_floor(region, radio, half_wave):
    rings = np.array([5.0, 9.0, 13.0])
    grid = AngleGrid.uniform_cosine(64)
    c = grid.values[25]
    r = 7.0  # halfway between the 5 m and 9 m rings
    user = np.array([r * c, 15.0 - r * np.sqrt(1 - c * c)])
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, user, rings)
    result = run_polar_baseline(ms, lay, radio, cfg, polar_dictionary(lay, radio, cfg, rings))
    err = np.linalg.norm(result.paths[0].position[:2] - user)
    # any atom sits on some ring, so the error cannot beat half the gap
    assert err >= 2.0 - 1e-9


def test_polar_baseline_misselects_under_noise(region, radio, half_wave):
    """The joint grid is coherent enough that moderate noise flips the pick."""
    rings = np.geomspace(2.0, 40.0, 8)
    grid = AngleGrid.uniform_cosine(128)
    c = grid.values[70]
    r = float(rings[3])
    user = np.array([r * c, 15.0 - r * np.sqrt(1 - c * c)])
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, user, rings, slots=32)
    from passloc.dictionary import build_polar_dictionary

    dic = build_polar_dictionary(lay.subarrays[0], radio, grid, rings, dh=2.0)
    phi = project_dictionary(dic, ms.w[0])
    phi = phi / np.linalg.norm(phi, axis=0)
    y0 = ms.y[0]
    true_idx = int(np.argmax(np.abs(phi.conj().T @ y0)))
    rng = np.random.default_rng(99)
    sigma = np.sqrt(np.mean(np.abs(y0) ** 2))  # 0 dB per-slot noise
    wrong = 0
    for _ in range(500):
        noise = sigma * np.sqrt(0.5) * (rng.standard_normal(y0.size) + 1j * rng.standard_normal(y0.size))
        pick = int(np.argmax(np.abs(phi.conj().T @ (y0 + noise))))
        wrong += int(pick != true_idx)
    assert 0 < wrong < 500


def test_polar_baseline_computes_energies_once_per_trial(monkeypatch, one_process_sweep):
    """An nf trial runs its bound pass once and one bit correlation per later path, and each
    path's survivors reach the certificate with those correlations and their full-screen
    energies; nothing projects."""
    from passloc.harness import ExperimentConfig, run_sweep

    energies, correlations, screened, shared, projected = [], [], [], [], []
    full_screen = passloc.estimator._screen_energies

    def counting(*args):
        energies.append(activation_energies(*args))
        return energies[-1]

    def correlating(*args):
        correlations.append(bit_correlations(*args))
        return correlations[-1]

    def screening(*args):
        screened.append(full_screen(*args))
        return screened[-1]

    def certifying(residuals, screen, error, bounds, redo, index, cosines):
        # path 0's correlations ride in the bound pass's product, path 1's are bit_correlations'
        first = len(shared) % 2 == 0
        corr = energies[-1][1] if first else correlations[-1]
        shared.append(np.array_equal(screen, passloc.estimator._score(corr[index], screened[-1])))
        return certified_picks(residuals, screen, error, bounds, redo, index, cosines)

    monkeypatch.setattr(passloc.estimator, "activation_energies", counting)
    monkeypatch.setattr(passloc.estimator, "bit_correlations", correlating)
    monkeypatch.setattr(passloc.estimator, "_screen_energies", screening)
    monkeypatch.setattr(passloc.estimator, "certified_picks", certifying)
    for name in ("project_dictionary", "omp_direction", "atom_energies"):
        monkeypatch.setattr(passloc.estimator, name, lambda *a, **k: projected.append(a))
    cfg = ExperimentConfig(scenarios=["nf"], snr_db=[25.0], l=1, trials=3, seed=5, nf_n=32,
                           slots_per_subarray=16, g_theta=64, nf_rings=4)
    records = run_sweep(cfg).records
    assert [len(r.positions) for r in records] == [2] * cfg.trials
    assert len(energies) == len(correlations) == cfg.trials
    assert len(screened) == 2 * len(shared)  # the seeds' full screen, then the survivors'
    assert shared == [True] * (2 * cfg.trials) and not projected


def test_polar_dictionary_holds_guided_atoms_built_once_per_sweep(monkeypatch,
                                                                 one_process_sweep):
    from passloc.harness import ExperimentConfig, run_sweep

    built, used = [], []

    def building(*args):
        built.append(polar_dictionary(*args))
        return built[-1]

    def baseline(ms, layout, radio, config, dictionary):
        used.append(dictionary.guided)
        return run_polar_baseline(ms, layout, radio, config, dictionary)

    monkeypatch.setattr(passloc.harness, "polar_dictionary", building)
    monkeypatch.setattr(passloc.harness, "run_polar_baseline", baseline)
    cfg = ExperimentConfig(scenarios=["nf"], snr_db=[10.0, 25.0], trials=3, seed=5, nf_n=32,
                           slots_per_subarray=16, g_theta=64, nf_rings=4)
    run_sweep(cfg)
    assert len(built) == 1 and len(used) == 6
    assert all(guided is built[0].guided for guided in used)
    dic, layout = built[0], passloc.harness.scenario_layout(cfg, "nf")[0]
    assert dic.atoms is None and dic.guided.flags.c_contiguous
    rings = default_polar_rings(cfg.region, cfg.nf_rings)
    sub, grid, dh = layout.subarrays[0], cfg.estimator_config().grid, cfg.h_pa - cfg.fixed_height
    kernel = phase_atoms(sub, cfg.radio, *polar_columns(grid, rings), dh,
                         cfg.radio.n_eff * sub.pa_positions[:, 0])  # (N, G) complex64
    assert np.array_equal(dic.guided, np.stack((kernel.real.T, kernel.imag.T), axis=1))
    parts = dic.guided.astype(float)
    assert np.allclose(dic.guided_norms, np.sqrt(np.sum(parts * parts, axis=(1, 2))),
                       atol=0.0, rtol=1e-14)
    channel = build_polar_dictionary(sub, cfg.radio, grid, rings, dh=dh)
    g = waveguide_vector(sub, cfg.radio)
    assert np.allclose((dic.guided[:, 0] + 1j * dic.guided[:, 1]).T,
                       g.conj()[:, None] * channel.atoms, atol=0.0, rtol=PHASE_ATOMS_ERROR)
    assert np.array_equal(dic.cosines, channel.cosines)
    assert np.array_equal(dic.ring_distances, channel.ring_distances)


def test_guided_rings_raise_on_a_geometrically_invalid_column(radio, half_wave):
    sub = SubarrayGeometry(np.array([0.0, 0.0, 2.0]), 16, half_wave)
    v = np.nextafter(1.0, 0.0)
    edge = AngleGrid(np.array([-v, -0.5, 0.0, 0.5, v]))
    rings = [5 * sub.spacing * (1 - 2e-16), 3.0]  # the first ring's last column is on element 5
    with pytest.raises(DictionaryError, match="geometrically invalid"):
        phase_atoms(sub, radio, *polar_columns(edge, rings), 0.0,
                    radio.n_eff * sub.pa_positions[:, 0])


def test_polar_dictionary_allocates_no_channel_domain_copy(region, radio, half_wave):
    import tracemalloc

    lay = custom_layout(region, Structure.MW, [[0.0, 15.0]], 32, half_wave)
    cfg = EstimatorConfig(region=region, g_theta=256)
    rings = np.geomspace(1.0, 40.0, 32)  # one ring's build is a small share of the whole
    cfg.grid  # noqa: B018 -- the cached grid is not part of the build
    tracemalloc.start()
    try:
        dic = polar_dictionary(lay, radio, cfg, rings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dic.guided.shape == (32 * 256, 2, 32)
    assert peak < 1.25 * dic.guided.nbytes


def test_polar_dictionary_arrays_are_read_only(region, radio, half_wave):
    """Every sweep of a process shares one polar dictionary (harness.scenario_atoms)."""
    lay = custom_layout(region, Structure.MW, [[0.0, 15.0]], 16, half_wave)
    dic = polar_dictionary(lay, radio, EstimatorConfig(region=region, g_theta=32), [4.0, 9.0])
    for array in (dic.guided, dic.guided_norms, dic.cosines, dic.ring_distances):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("slots", [16, 64], ids=["N>T", "N<T"])
def test_activation_energies_equal_atom_energies(region, radio, half_wave, slots):
    """The certificate's float64 redo of every column reads ||W a_j||^2 through the bits."""
    rings = np.geomspace(2.0, 40.0, 6)
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, [3.0, 9.0], rings, slots=slots)
    dic = polar_dictionary(lay, radio, cfg, rings)
    channel = build_polar_dictionary(lay.subarrays[0], radio, cfg.grid, rings, dh=2.0)
    got = redone_scores(ms.w[0], ms.y[0], dic, lay.subarrays[0], radio, 2.0, np.arange(dic.g))[2]
    want = atom_energies(ms.w[0], channel)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_redone_scores_rebuild_a_block_of_columns_at_a_time(region, radio, half_wave,
                                                            monkeypatch):
    """Tied pilots redo every column: the float64 redo builds _COLUMN_BLOCK columns per call,
    with the values of one build of all of them."""
    rings = np.geomspace(2.0, 40.0, 6)
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, [3.0, 9.0], rings)
    dic = polar_dictionary(lay, radio, cfg, rings)
    args = (ms.w[0], ms.y[0], dic, lay.subarrays[0], radio, 2.0, np.arange(dic.g))
    whole, built, real = redone_scores(*args), [], passloc.estimator.build_dp_dictionary

    def build(sub, r_param, *rest, **kwargs):
        built.append(np.size(r_param))
        return real(sub, r_param, *rest, **kwargs)

    monkeypatch.setattr(passloc.estimator, "build_dp_dictionary", build)
    monkeypatch.setattr(passloc.estimator, "_COLUMN_BLOCK", 100)
    blocked = redone_scores(*args)
    assert built == [100, 100, 100, dic.g - 300]
    for got, want in zip(blocked, whole):
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_polar_screen_gathers_a_block_of_survivors_at_a_time(region, radio, half_wave,
                                                            monkeypatch):
    """Tied pilots keep every column after the bound pass: the full screen gathers _COLUMN_BLOCK
    of them per product, never all of them, with the values of one product of all of them."""
    rings = np.geomspace(2.0, 40.0, 6)
    lay = custom_layout(region, Structure.MW, [[0.0, 15.0]], 32, half_wave)
    scene = Scene(np.array([3.0, 9.0, 0.0]), np.empty((0, 3)))
    sch = make_schedule(lay, total_slots=48, density=1.0, rng_seed=0)
    ms = measure(lay, sch, synthesize_paths(lay, scene, radio), radio, snr_db=10.0, rng_seed=0)
    cfg = EstimatorConfig(region=region, g_theta=64)
    dic = polar_dictionary(lay, radio, cfg, rings)
    gathered, screens = [], []
    products, certify = passloc.estimator._atom_products, passloc.estimator.certified_picks

    def product(rows, guided):
        gathered.append((len(rows), len(guided)))
        return products(rows, guided)

    def certifying(residuals, screen, *rest):
        screens.append(screen)
        return certify(residuals, screen, *rest)

    monkeypatch.setattr(passloc.estimator, "_atom_products", product)
    monkeypatch.setattr(passloc.estimator, "certified_picks", certifying)
    whole = run_polar_baseline(ms, lay, radio, cfg, dic)
    gathered.clear()
    monkeypatch.setattr(passloc.estimator, "_COLUMN_BLOCK", 100)
    blocked = run_polar_baseline(ms, lay, radio, cfg, dic)
    screened = [size for rows, size in gathered if rows == 48]  # the full screen's products
    assert screened == [passloc.estimator._SEED_COLUMNS, 100, 100, 100, dic.g - 300]
    assert "tied-pilots" in blocked.flags and "tied-pilots" in whole.flags
    assert [r.paths[0].directions[0].columns_scored for r in (whole, blocked)] == [dic.g] * 2
    assert np.allclose(screens[1], screens[0], rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("slots", [16, 64], ids=["N>T", "N<T"])
def test_bit_correlations_equal_channel_atom_correlations(region, radio, half_wave, slots):
    """u_j^H (A^T r) in the certificate's float64 redo of every column is a_j^H W^H r, for the
    pilots and for the residual path 1 matches."""
    rings = np.geomspace(2.0, 40.0, 6)
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, [3.0, 9.0], rings, slots=slots)
    w, y = ms.w[0], ms.y[0]
    dic = polar_dictionary(lay, radio, cfg, rings)
    channel = build_polar_dictionary(lay.subarrays[0], radio, cfg.grid, rings, dh=2.0)
    score, _, _ = passloc.estimator._scores(y, w, channel)
    t = w @ channel.atoms[:, int(np.argmax(score))]
    residual = y - t * (np.vdot(t, y) / np.vdot(t, t))
    for r in (y, residual):
        got = redone_scores(w, r, dic, lay.subarrays[0], radio, 2.0, np.arange(dic.g))[1]
        want = passloc.estimator._scores(r, w, channel)[1]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _full_screen(dic, sub, radio, w, r) -> tuple:
    """The full float32 screen of every polar column: its energies over all T activation rows,
    and its correlations with r from the bound pass's product."""
    _, corr = activation_energies(w, dic, sub, radio, r)
    return passloc.estimator._screen_energies(w != 0, dic.guided, np.arange(dic.g)), corr


def _nf_screens(dic, sub, radio, dh, w, y) -> tuple:
    """The full float32 screen's energies, and (residual, screen scores, float64 scores) for the
    pilots and for the residual of their best column's refit."""
    energy, corr = _full_screen(dic, sub, radio, w, y)
    assert dic.guided.dtype == energy.dtype == np.float32 and corr.dtype == np.complex64
    exact = redone_scores(w, y, dic, sub, radio, dh, np.arange(dic.g))[0]
    j = int(np.argmax(exact))
    t = w @ build_dp_dictionary(sub, float(dic.ring_distances[j]), dic.cosines[[j]], radio,
                                dh=dh).atoms[:, 0]
    residual = y - t * (np.vdot(t, y) / np.vdot(t, t))
    screens = [(r, passloc.estimator._score(c, energy), s64)
               for r, c, s64 in ((y, corr, exact),
                                 (residual, bit_correlations(w, residual, dic),
                                  redone_scores(w, residual, dic, sub, radio, dh,
                                                np.arange(dic.g))[0]))]
    return energy, screens


def _screen_errors(dic, sub, radio, dh, w, y) -> list:
    """The float32 screen's largest score error over every column, as a share of the best float64
    score, for the pilots and for the residual of their best column's refit."""
    _, screens = _nf_screens(dic, sub, radio, dh, w, y)
    return [float(np.max(np.abs(screen - s64)) / s64.max()) for _, screen, s64 in screens]


def test_float32_screen_stays_within_its_error_bound_at_the_nf_sweep_size():
    """N = 96, T = 64 and 16 rings of 1,024 angles, the nf sweep's defaults, from 0 to 30 dB."""
    assert SCREEN_ERROR < CERTIFY_TAU
    cfg = passloc.harness.ExperimentConfig(scenarios=["nf"], seed=11, trials=3, l=1,
                                           snr_db=(0.0, 30.0))
    dic = passloc.harness.scenario_atoms(cfg, "nf")[0]
    for si, snr in enumerate(cfg.snr_db):
        for trial in range(cfg.trials):
            _, layout, _, _, ms = passloc.harness.simulate_trial(cfg, "nf", snr, si, trial)
            errors = _screen_errors(dic, layout.subarrays[0], cfg.radio,
                                    cfg.h_pa - cfg.fixed_height, ms.w[0], ms.y[0])
            assert max(errors) <= SCREEN_ERROR, (snr, trial, errors)


_small_nf = dict(n=st.integers(2, 64), slots=st.integers(1, 64), g=st.integers(2, 256),
                 rings=st.integers(1, 6), l=st.integers(0, 1), snr=st.floats(0.0, 30.0),
                 seed=st.integers(0, 2**16))


def _small_nf_trial(n, slots, g, rings, l, snr, seed, density=0.5, tied=False):
    """A one-trial nf config's trial and polar dictionary. Activation bits of rank 1 (one slot,
    or every slot the same bits) score every column alike, a tie at any precision: drawn only
    with ``tied``."""
    cfg = passloc.harness.ExperimentConfig(scenarios=["nf"], nf_n=n, slots_per_subarray=slots,
                                           g_theta=g, nf_rings=rings, l=l, snr_db=(snr,),
                                           seed=seed, trials=1, density=density)
    _, layout, _, _, ms = passloc.harness.simulate_trial(cfg, "nf", snr, 0, 0)
    assume(tied or np.linalg.matrix_rank((ms.w[0] != 0).astype(float)) >= 2)
    return cfg, layout, ms, passloc.harness.scenario_atoms(cfg, "nf")[0]


@settings(max_examples=100, deadline=None)
@given(**_small_nf)
def test_float32_screen_stays_within_its_error_bound(n, slots, g, rings, l, snr, seed):
    """_polar_screen_error, read from the screen's own values, bounds every column's score error,
    with no slack, for the pilots and the residual of the best column's refit."""
    cfg, layout, ms, dic = _small_nf_trial(n, slots, g, rings, l, snr, seed)
    energy, screens = _nf_screens(dic, layout.subarrays[0], cfg.radio,
                                  cfg.h_pa - cfg.fixed_height, ms.w[0], ms.y[0])
    for r, screen, s64 in screens:
        bound = passloc.estimator._polar_screen_error(ms.w[0] != 0, r, screen, energy,
                                                      dic.guided_norms)
        assert np.all(np.abs(screen - s64) <= bound)


def test_nf_certificate_is_exact_where_the_screen_bound_fails():
    """N = 4, T = 2 and 57 cosines on one ring at 0 dB: the screen errs by 1.3e-5 of the best
    score, beyond SCREEN_ERROR (a hypothesis falsifying example). The per-column bound covers
    the error, and the certified pick is float64's."""
    cfg = passloc.harness.ExperimentConfig(scenarios=["nf"], nf_n=4, slots_per_subarray=2,
                                           g_theta=57, nf_rings=1, snr_db=(0.0,), seed=4, trials=1)
    _, layout, _, _, ms = passloc.harness.simulate_trial(cfg, "nf", 0.0, 0, 0)
    dic = passloc.harness.scenario_atoms(cfg, "nf")[0]
    w, y, sub, dh = ms.w[0], ms.y[0], layout.subarrays[0], cfg.h_pa - cfg.fixed_height
    energy, ((_, screen, s64), _) = _nf_screens(dic, sub, cfg.radio, dh, w, y)
    assert np.max(np.abs(screen - s64)) > SCREEN_ERROR * s64.max()
    bound = passloc.estimator._polar_screen_error(w != 0, y, screen, energy, dic.guided_norms)
    assert np.all(np.abs(screen - s64) <= bound)
    de = passloc.harness.estimate(cfg, "nf", ms, layout, [dic]).paths[0].directions[0]
    assert de.grid_index == int(np.argmax(s64)) and de.columns_redone >= 1


@settings(max_examples=200, deadline=None)
@given(**_small_nf)
def test_certified_polar_picks_equal_the_float64_full_grid_picks(n, slots, g, rings, l, snr, seed):
    """Every pick, and an absent path, as the float64 channel-domain grid scores them (_scores)."""
    cfg, layout, ms, dic = _small_nf_trial(n, slots, g, rings, l, snr, seed)
    result = passloc.harness.estimate(cfg, "nf", ms, layout, [dic])
    w, y = ms.w[0], ms.y[0].astype(complex)
    channel = build_polar_dictionary(layout.subarrays[0], cfg.radio, cfg.estimator_config().grid,
                                     default_polar_rings(cfg.region, rings),
                                     dh=cfg.h_pa - cfg.fixed_height)

    def float64_pick(r):
        score, corr, energy = passloc.estimator._scores(r, w, channel)
        return passloc.estimator._pick(r, range(channel.g), score, corr, energy, channel.cosines)

    residual, picked = y, []
    for path in result.paths:
        de, want = path.directions[0], float64_pick(residual)
        assert de.grid_index == want.grid_index
        assert de.coefficient == pytest.approx(want.coefficient, rel=1e-9)
        assert 1 <= de.columns_scored <= channel.g and de.columns_redone >= 1
        picked.append(channel.atoms[:, de.grid_index])
        raw = w @ np.column_stack(picked)
        residual = y - raw @ np.linalg.lstsq(raw, y, rcond=None)[0]
    if len(result.paths) < cfg.l + 1:  # path-absent
        ref = abs(result.paths[0].directions[0].coefficient)
        assert abs(float64_pick(residual).coefficient) < passloc.estimator.COEFF_FLOOR * ref


# T <= _BOUND_ROWS, rank-1 bits (tied pilots: one slot, or density 1.0) and two scatterers drawn too
_bound_nf = dict(_small_nf, l=st.integers(0, 2), density=st.sampled_from([0.5, 1.0]))


@settings(max_examples=100, deadline=None)
@given(**_bound_nf)
def test_bound_pass_bounds_every_column_score(n, slots, g, rings, l, snr, seed, density):
    """s_j <= b_j <= b~_j + e_j for every column, for the pilots and the residual of their best
    column's refit: the float64 score, the float64 partial bound |c_j| / ||A_K u_j|| over the
    first _BOUND_ROWS activation rows, and the bound pass's float32 bound plus its error bound."""
    cfg, layout, ms, dic = _small_nf_trial(n, slots, g, rings, l, snr, seed, density, tied=True)
    w, sub, dh = ms.w[0], layout.subarrays[0], cfg.h_pa - cfg.fixed_height
    _, screens = _nf_screens(dic, sub, cfg.radio, dh, w, ms.y[0])
    rows = passloc.estimator._BOUND_ROWS
    for r, _, s64 in screens:
        c64 = redone_scores(w, r, dic, sub, cfg.radio, dh, np.arange(dic.g))[1]
        p64 = redone_scores(w[:rows], r[:rows], dic, sub, cfg.radio, dh, np.arange(dic.g))[2]
        with np.errstate(divide="ignore"):
            b64 = np.abs(c64) / np.sqrt(p64)
        bound_energy, corr = activation_energies(w, dic, sub, cfg.radio, r)
        bound = passloc.estimator._score(corr, bound_energy)
        v = (w != 0).T.astype(float) @ r
        error = passloc.estimator._polar_screen_error((w != 0)[:rows], v, bound, bound_energy,
                                                      dic.guided_norms)
        assert np.all(s64 <= b64 * (1.0 + 1e-12))  # float64 rounding of the two energies
        assert np.all(b64 <= bound + error)


@settings(max_examples=100, deadline=None)
@given(**_bound_nf)
def test_polar_picks_equal_the_first_maximum_of_every_redone_column(n, slots, g, rings, l, snr,
                                                                   seed, density):
    """Each path's pick is _pick's on the float64 redone_scores of all G columns, though only the
    bound pass's survivors get the full screen (columns_scored)."""
    cfg, layout, ms, dic = _small_nf_trial(n, slots, g, rings, l, snr, seed, density, tied=True)
    result = passloc.harness.estimate(cfg, "nf", ms, layout, [dic])
    w, y, sub = ms.w[0], ms.y[0].astype(complex), layout.subarrays[0]
    dh = cfg.h_pa - cfg.fixed_height
    residual, picked = y, []
    for path in result.paths:
        de = path.directions[0]
        want = passloc.estimator._pick(
            residual, range(dic.g),
            *redone_scores(w, residual, dic, sub, cfg.radio, dh, np.arange(dic.g)), dic.cosines)
        assert de.grid_index == want.grid_index
        assert de.coefficient == pytest.approx(want.coefficient, rel=1e-12)
        assert 1 <= de.columns_scored <= dic.g
        j = de.grid_index
        picked.append(build_dp_dictionary(sub, float(dic.ring_distances[j]), dic.cosines[[j]],
                                          cfg.radio, dh=dh).atoms[:, 0])
        raw = w @ np.column_stack(picked)
        residual = y - raw @ np.linalg.lstsq(raw, y, rcond=None)[0]


def _polar_certified(r, w, dic, sub, radio, dh, corr, energy):
    """run_polar_baseline's certified_picks of a path from its screen correlations and energies."""
    return certified_picks([r], passloc.estimator._score(corr, energy), 0.0, np.array([0, dic.g]),
                           partial(redone_scores, w, r, dic, sub, radio, dh), np.arange(dic.g),
                           dic.cosines)[0]


def test_certificate_breaks_a_forced_near_tie_as_float64_does(region, radio, half_wave):
    """Two columns within CERTIFY_TAU, ranked one way by the screen and the other in float64."""
    rings = np.geomspace(2.0, 40.0, 6)
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, [3.0, 9.0], rings)
    sub, w = lay.subarrays[0], ms.w[0]
    dic = polar_dictionary(lay, radio, cfg, rings)
    channel = build_polar_dictionary(sub, radio, cfg.grid, rings, dh=2.0)
    t = w @ channel.atoms[:, [70, 289]]  # the top two of r, 1.5 % coherent
    t /= np.linalg.norm(t, axis=0)
    r = t[:, 0] + (1.0 - CERTIFY_TAU / 10.0) * t[:, 1]
    s64 = redone_scores(w, r, dic, sub, radio, 2.0, np.arange(dic.g))[0]
    win, lose = np.argsort(-s64)[:2]
    assert {win, lose} == {70, 289} and s64[lose] >= (1.0 - CERTIFY_TAU) * s64[win]
    energy, corr = _full_screen(dic, sub, radio, w, r)
    screen = passloc.estimator._score(corr, energy)
    corr[lose] *= float(screen[win]) / float(screen[lose]) * (1.0 + CERTIFY_TAU / 10.0)
    assert np.argmax(passloc.estimator._score(corr, energy)) == lose
    de = _polar_certified(r, w, dic, sub, radio, 2.0, corr, energy)
    want = passloc.estimator._pick(r, range(channel.g), *passloc.estimator._scores(r, w, channel),
                                   channel.cosines)
    assert de.grid_index == want.grid_index == win
    assert de.coefficient == pytest.approx(want.coefficient, rel=1e-12)
    assert de.correlation == pytest.approx(want.correlation, rel=1e-12)
    assert de.columns_redone >= 2 and de.columns_scored == dic.g


def test_certificate_lets_an_inflated_low_energy_column_win_only_if_float64_picks_it(
        region, radio, half_wave):
    rings = np.geomspace(2.0, 40.0, 6)
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, [3.0, 9.0], rings)
    sub, w, y = lay.subarrays[0], ms.w[0], ms.y[0]
    dic = polar_dictionary(lay, radio, cfg, rings)
    channel = build_polar_dictionary(sub, radio, cfg.grid, rings, dh=2.0)
    want = passloc.estimator._pick(y, range(channel.g), *passloc.estimator._scores(y, w, channel),
                                   channel.cosines).grid_index
    weakest = int(np.argmin(redone_scores(w, y, dic, sub, radio, 2.0, np.arange(dic.g))[2]))
    for k in (weakest, want):
        energy, corr = _full_screen(dic, sub, radio, w, y)
        energy[k] *= np.float32(1e-12)  # its screen score rises a million-fold
        assert np.argmax(passloc.estimator._score(corr, energy)) == k
        de = _polar_certified(y, w, dic, sub, radio, 2.0, corr, energy)
        assert de.grid_index == want != weakest


def test_polar_baseline_rebuilds_each_picked_column_alone(region, radio, half_wave):
    rings = np.geomspace(2.0, 40.0, 6)
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, [3.0, 9.0], rings)
    sub = lay.subarrays[0]
    channel = build_polar_dictionary(sub, radio, cfg.grid, rings, dh=2.0)
    for j in (0, 63, 64, 200, channel.g - 1):
        alone = build_dp_dictionary(sub, float(channel.ring_distances[j]), channel.cosines[[j]],
                                    radio, dh=2.0)
        assert np.array_equal(alone.atoms[:, 0], channel.atoms[:, j])
    path = run_polar_baseline(ms, lay, radio, cfg, polar_dictionary(lay, radio, cfg, rings)).paths[0]
    j = path.directions[0].grid_index
    assert np.array_equal(path.components[0], path.coefficients[0] * channel.atoms[:, j])


def test_polar_baseline_rejects_w_that_is_not_bits_times_guide(region, radio, half_wave):
    rings = np.array([5.0, 8.0, 12.0])
    lay, scene, ms, cfg = _polar_setup(region, radio, half_wave, [3.0, 9.0], rings)
    dic = polar_dictionary(lay, radio, cfg, rings)
    w = ms.w[0]
    for bad in (0.5 * w, w * np.exp(0.1j), np.where(w != 0, w + 1e-12, 0.0)):
        with pytest.raises(ValueError, match="not conj"):
            run_polar_baseline(dataclasses.replace(ms, w=(bad,)), lay, radio, cfg, dic)
    with pytest.raises(ValueError, match="not conj"):  # another carrier's waveguide phases
        activation_energies(w, dic, lay.subarrays[0], RadioConfig(frequency=30e9), ms.y[0])
    bare = dataclasses.replace(dic, guided=None)
    with pytest.raises(ValueError, match="guided atoms"):
        run_polar_baseline(ms, lay, radio, cfg, bare)


def test_polar_baseline_requires_single_subarray(region, radio, half_wave):
    lay = build_mw_layout(region, 2, 16, half_wave)
    scene = sample_scene(region, l=0, rng_seed=0)
    sch = make_schedule(lay, total_slots=16, rng_seed=0)
    ms = measure(lay, sch, synthesize_paths(lay, scene, radio), radio, None)
    cfg = EstimatorConfig(region=region)
    with pytest.raises(ValueError):
        run_polar_baseline(ms, lay, radio, cfg, polar_dictionary(lay, radio, cfg, [5.0]))


def test_estimator_config_validation(region):
    with pytest.raises(ValueError):
        EstimatorConfig(region=region, mode="4d")
    with pytest.raises(ValueError):
        EstimatorConfig(region=region, num_paths=0)
    with pytest.raises(ValueError):
        EstimatorConfig(region=region, max_outer_iters=0)
