"""Direction matching, sign-resolved position fusion, and the joint loop."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import passloc.estimator
from passloc.channel import (
    channel_vector,
    make_schedule,
    measure,
    measurement_matrix,
    path_vector,
    synthesize_paths,
)
from passloc.dictionary import (
    AngleGrid,
    DictionaryError,
    DpDictionary,
    build_dp_dictionary,
    project_dictionary,
)
from passloc.estimator import (
    EstimatorConfig,
    extract_directions,
    omp_direction,
    polar_dictionary,
    projection_matrix,
    reconstruct_channel,
    resolve_signs,
    run_omp_gcl,
    run_polar_baseline,
    sign_consistency_penalty,
    solve_position_3d,
    solve_position_ls,
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
    dic = build_dp_dictionary(sub, r, AngleGrid.uniform_cosine(g), radio, dh=dh, index=0)
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
    mode = ("2d", "3d")[seed % 2]
    dic = build_dp_dictionary(sub, float(rng.uniform(0.05, 40.0)), AngleGrid.uniform_cosine(g),
                              radio, mode=mode, dh=float(rng.uniform(0.0, 4.0)), index=seed)
    w = rng.standard_normal((t, n)) + 1j * rng.standard_normal((t, n))
    w[rng.random(t) < 0.25] = 0.0
    y = rng.standard_normal(t) + 1j * rng.standard_normal(t)
    if seed % 3 == 0:  # a residual that one column explains, plus a little noise
        y = (1.5 - 0.5j) * (w @ dic.atoms[:, rng.integers(g)]) + 1e-9 * y
    return dic, w, y


# _random_case seeds on each side of omp_direction's choice of energy form
GRAM_SEEDS, PROJECTED_SEEDS = (1, 4), (2, 3)


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
    """omp_direction, in either energy form, picks the oracle's column."""
    dic, w, y = _random_case(radio, half_wave, seed)
    g, score, coeff = _oracle(dic, w, y)
    got = omp_direction(y, w, dic, path=2)
    assert (got.subarray, got.path, got.grid_index, got.varphi) == (seed, 2, g, dic.cosines[g])
    assert got.low_confidence == (score <= 1e-8 * np.linalg.norm(y))
    assert got.coefficient == pytest.approx(coeff, rel=1e-10)
    assert got.correlation == pytest.approx(score, rel=1e-10)


def test_gram_matching_flags_a_residual_outside_the_range_of_w(radio, half_wave):
    for seed in GRAM_SEEDS[:1] + PROJECTED_SEEDS[:1]:
        dic, w, _ = _random_case(radio, half_wave, seed)
        w[0] = 0.0
        y = np.zeros(w.shape[0], dtype=complex)
        y[0] = 1.0  # W^H y = 0
        assert omp_direction(y, w, dic).low_confidence


def test_gram_matching_ties_resolve_to_the_lower_index(radio, half_wave):
    for seed in GRAM_SEEDS[1:] + PROJECTED_SEEDS[1:]:
        dic, w, _ = _random_case(radio, half_wave, seed)
        atoms = dic.atoms.copy()
        atoms[:, 9] = atoms[:, 5]
        twin = DpDictionary(subarray=0, r_param=dic.r_param, mode=dic.mode,
                            cosines=dic.cosines, atoms=atoms)
        de = omp_direction(w @ atoms[:, 9], w, twin)
        assert de.grid_index == 5
        assert de.coefficient == pytest.approx(1.0, rel=1e-10)


def test_gram_matching_validation(radio, half_wave):
    for seed in GRAM_SEEDS[:1] + PROJECTED_SEEDS[:1]:
        dic, w, y = _random_case(radio, half_wave, seed)
        with pytest.raises(DictionaryError, match="annihilated every atom"):
            omp_direction(y, np.zeros_like(w), dic)
        with pytest.raises(ValueError):
            omp_direction(y[:-1], w, dic)
        with pytest.raises(ValueError):
            omp_direction(y, w[:, :-1], dic)


def test_matcher_projects_only_when_n_is_at_least_t(radio, half_wave, monkeypatch):
    """The 24 random cases cover both energy forms, and only N >= T projects."""
    calls = []

    def counted(dictionary, w):
        calls.append(dictionary.subarray)
        return project_dictionary(dictionary, w)

    # looked up as a passloc.estimator global, so a wrapper installed there sees it
    monkeypatch.setattr(passloc.estimator, "project_dictionary", counted)
    projected = []
    for seed in range(24):
        dic, w, y = _random_case(radio, half_wave, seed)
        omp_direction(y, w, dic)
        if w.shape[1] >= w.shape[0]:
            projected.append(seed)
    assert calls == projected
    assert 0 < len(projected) < 24
    assert set(PROJECTED_SEEDS) <= set(projected) and not set(GRAM_SEEDS) & set(projected)


def test_matcher_never_picks_an_annihilated_column(radio, half_wave):
    two = SubarrayGeometry(np.array([0.0, 0.0, 2.0]), 2, half_wave)
    dic = build_dp_dictionary(two, 5.0, AngleGrid.uniform_cosine(8), radio)
    victim = dic.atoms[:, 3]
    # w @ victim = v1*v0 - v0*v1 = 0 exactly, so column 3 has zero energy (N = 2 >= T = 1)
    w = np.array([[victim[1], -victim[0]]])
    assert project_dictionary(dic, w)[0, 3] == 0.0
    for y in (np.ones(1, dtype=complex), np.array([0.3 - 2.0j])):
        assert omp_direction(y, w, dic).grid_index != 3


def test_extract_directions_gives_one_estimate_per_subarray(region, radio, half_wave):
    layout = build_mw_layout(region, 4, 16, half_wave)
    scene = sample_scene(region, l=0, rng_seed=3)
    ms = measure(layout, make_schedule(layout, 32, 0.5, rng_seed=1),
                 synthesize_paths(layout, scene, radio), radio, snr_db=20.0, rng_seed=2)
    grid = AngleGrid.uniform_cosine(128)
    r_anchor = np.full(layout.m, 10.0)
    dh = region.h_pa
    ests = extract_directions(layout, radio, grid, ms.w, ms.y, r_anchor, dh=dh, path=1)
    assert [(d.subarray, d.path) for d in ests] == [(m, 1) for m in range(layout.m)]
    for m, (sub, d) in enumerate(zip(layout.subarrays, ests)):
        dic = build_dp_dictionary(sub, 10.0, grid, radio, dh=dh, index=m)
        g, _, _ = _oracle(dic, ms.w[m], ms.y[m])
        assert (d.grid_index, d.varphi) == (g, dic.cosines[g])


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


def test_sign_enumeration_cap():
    m = passloc.estimator.MAX_SIGN_SUBARRAYS
    rng = np.random.default_rng(3)
    refs, phis = rng.uniform(0, 30, (m, 2)), rng.uniform(-1, 1, m)
    tracemalloc.start()
    try:
        fix = resolve_signs(refs, phis, bounds=((0.0, 30.0), (0.0, 30.0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fix.signs.shape == (m,) and np.all(np.isfinite(fix.position))
    assert peak < 32e6  # chunked candidates: a full 2^20 stack would need over 1 GB
    with pytest.raises(ValueError):
        resolve_signs(np.zeros((m + 1, 2)), np.zeros(m + 1))


def test_feasibility_box_overrides_tie_order():
    refs = np.array([[0.0, 0.0], [10.0, 0.0]])
    truth = np.array([5.0, 3.0])
    phis, _ = _true_bearings(refs, truth)
    free = resolve_signs(refs, phis)
    assert free.position[1] < 0.0  # mirror tie, lexicographic pick
    boxed = resolve_signs(refs, phis, bounds=((0.0, 10.0), (0.0, 10.0)))
    assert np.linalg.norm(boxed.position - truth) < 1e-6
    assert np.array_equal(boxed.signs, [1.0, 1.0])
    # a box covering both mirror basins keeps the lexicographic order
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


def _loop_ranks(refs, phis, bounds):
    """Every sign candidate in lexicographic order with its (outside box, cost) rank."""
    out = []
    for signs in itertools.product((-1.0, 1.0), repeat=len(phis)):
        s = np.array(signs)
        q, cost_ls, lam_min = solve_position_ls(refs, phis, s)
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
@given(case=_fusions(), chunk=st.sampled_from([1, 3, 64, passloc.estimator.SIGN_CHUNK]))
def test_batched_signs_equal_the_candidate_loop_bit_for_bit(case, chunk):
    """Any chunking of the stacked solve keeps the loop's winner, bits and tie order."""
    refs, phis, bounds = case
    with mock.patch.object(passloc.estimator, "SIGN_CHUNK", chunk):
        fix = resolve_signs(refs, phis, bounds)
    _, signs, q, cost_ls, cost_pen, lam_min = _loop_resolve(refs, phis, bounds)
    assert fix.signs.tobytes() == signs.tobytes()
    assert fix.position.tobytes() == q.tobytes()
    assert (fix.cost_ls, fix.cost_penalty, fix.lambda_min) == (cost_ls, cost_pen, lam_min)
    collinear = len(phis) < 3 or np.linalg.svd(refs - refs.mean(axis=0), compute_uv=False)[-1] < 1e-9
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
    assume(fix.lambda_min > 1e-2)  # eps-regularized solve: translation error ~ eps / lambda_min
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
    tol = 1e-9 * (1.0 + np.linalg.norm(fix.position))
    assert np.array_equal(moved.signs, fix.signs[p])
    assert np.linalg.norm(moved.position - fix.position) < tol
    for name in ("cost_ls", "cost_penalty", "lambda_min"):
        assert getattr(moved, name) == pytest.approx(getattr(fix, name), rel=1e-9, abs=1e-9), name
    q, cost, lam_min = solve_position_ls(refs, phis, fix.signs)
    q_p, cost_p, lam_p = solve_position_ls(refs[p], phis[p], fix.signs[p])
    assert np.linalg.norm(q_p - q) < tol
    assert (cost_p, lam_p) == pytest.approx((cost, lam_min), rel=1e-9, abs=1e-9)


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
    refs = np.array([[0.0, 15.0, 4.0], [15.0, 15.0, 4.0], [30.0, 15.0, 4.0]])
    truth = np.array([12.0, 11.0, 1.0])
    fix = solve_position_3d(refs, _slant_bearings(refs, truth), bounds=((0, 30), (0, 30)))
    assert "ambiguous" in fix.flags


def test_3d_fusion_validation():
    with pytest.raises(ValueError):
        solve_position_3d(np.zeros((2, 3)), [0.1, 0.2])
    refs = np.array([[0.0, 0.0, 4.0], [1.0, 0.0, 3.0], [0.0, 1.0, 4.0]])
    with pytest.raises(ValueError):
        solve_position_3d(refs, [0.1, 0.2, 0.3])


# --- joint loop ------------------------------------------------------------------


def _run_once(region, radio, half_wave, *, m=3, n=32, l=0, seed=0, snr=None, **cfg_kw):
    lay = build_mw_layout(region, m, n, half_wave)
    scene = sample_scene(region, l=l, rng_seed=seed)
    paths = synthesize_paths(lay, scene, radio)
    sch = make_schedule(lay, total_slots=64, rng_seed=seed)
    ms = measure(lay, sch, paths, radio, snr_db=snr, rng_seed=seed)
    cfg = EstimatorConfig(region=region, num_paths=l + 1, **cfg_kw)
    return scene, run_omp_gcl(ms, lay, radio, cfg)


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
    monkeypatch.setattr(passloc.estimator, "polish", lambda position, *a: position)
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
    result = run_omp_gcl(ms, lay, radio, cfg)
    assert result.paths[1].absent
    assert "path-absent" in result.flags


def test_joint_loop_rejects_mismatched_layout(region, radio, half_wave):
    lay3 = build_mw_layout(region, 3, 32, half_wave)
    lay2 = build_mw_layout(region, 2, 32, half_wave)
    scene = sample_scene(region, l=0, rng_seed=0)
    sch = make_schedule(lay3, total_slots=64, rng_seed=0)
    ms = measure(lay3, sch, synthesize_paths(lay3, scene, radio), radio, None)
    with pytest.raises(ValueError):
        run_omp_gcl(ms, lay2, radio, EstimatorConfig(region=region))


def test_joint_loop_trace_records_iterations(region, radio, half_wave):
    scene, result = _run_once(region, radio, half_wave, seed=2)
    trace = result.paths[0].trace
    assert len(trace) >= 1
    assert any("position" in t for t in trace)


def test_joint_loop_3d_smoke(radio, half_wave):
    tall = ServiceRegion(30.0, 30.0, 6.0, h_range=(0.0, 6.0))
    lay = build_mw_layout(tall, 4, 32, half_wave)
    scene = sample_scene(tall, l=0, rng_seed=7, mode="3d")
    sch = make_schedule(lay, total_slots=64, rng_seed=7)
    ms = measure(lay, sch, synthesize_paths(lay, scene, radio), radio, None, rng_seed=7)
    cfg = EstimatorConfig(region=tall, mode="3d", g_theta=2048)
    result = run_omp_gcl(ms, lay, radio, cfg)
    assert np.linalg.norm(result.paths[0].position - scene.user) < 0.1


def test_subtracting_direct_component_leaves_scattered_part(region, radio, half_wave):
    lay = build_mw_layout(region, 2, 16, half_wave)
    scene = sample_scene(region, l=1, rng_seed=4)
    paths = synthesize_paths(lay, scene, radio)
    sch = make_schedule(lay, total_slots=32, rng_seed=4)
    ms = measure(lay, sch, paths, radio, snr_db=None)
    amp = np.sqrt(radio.p0)
    for m in range(2):
        left = ms.y[m] - amp * (ms.w[m] @ paths[m, 0])
        right = amp * (ms.w[m] @ paths[m, 1])
        assert np.allclose(left, right, rtol=1e-10, atol=1e-18)


# --- channel reconstruction -------------------------------------------------------


def test_reconstruction_from_truth_is_exact(region, radio, half_wave):
    lay = build_mw_layout(region, 2, 16, half_wave)
    scene = sample_scene(region, l=2, rng_seed=5)
    paths = synthesize_paths(lay, scene, radio)
    for m, sub in enumerate(lay.subarrays):
        h = reconstruct_channel(scene.points, sub.pa_positions, radio)
        assert np.array_equal(h, channel_vector(paths[m]))


def test_reconstruction_phase_sensitivity_to_range(radio):
    # a 1 cm range error rotates the element phase by wavenumber * 0.01
    pa = np.array([[0.0, 0.0, 0.0]])
    h1 = reconstruct_channel([[5.0, 0.0, 0.0]], pa, radio)
    h2 = reconstruct_channel([[5.01, 0.0, 0.0]], pa, radio)
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

    dic = build_polar_dictionary(
        lay.subarrays[0], radio, grid, rings, dh=2.0, index=0
    )
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


def test_polar_baseline_projects_once_per_trial(monkeypatch):
    """Every path of an nf trial reuses one W A projection of the polar dictionary."""
    from passloc.harness import ExperimentConfig, run_sweep

    calls = []

    def counting(dictionary, w):
        calls.append(w.shape)
        return project_dictionary(dictionary, w)

    monkeypatch.setattr(passloc.estimator, "project_dictionary", counting)
    cfg = ExperimentConfig(scenarios=["nf"], snr_db=[25.0], l=1, trials=3, seed=5, nf_n=32,
                           slots_per_subarray=16, g_theta=64, nf_rings=4)
    records = run_sweep(cfg).records
    assert [len(r.positions) for r in records] == [2] * cfg.trials
    assert len(calls) == cfg.trials


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
