"""Distance-parameterized dictionaries, projection, and the polar variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passloc.channel import FOUR_PI, RadioConfig, measurement_matrix, path_vector
from passloc.dictionary import (
    PHASE_ATOMS_ERROR,
    AngleGrid,
    DictionaryError,
    _squared_ranges,
    build_dp_dictionary,
    build_polar_dictionary,
    default_polar_rings,
    mutual_coherence,
    phase_atoms,
    polar_columns,
    project_dictionary,
)
from passloc.estimator import EstimatorConfig, omp_direction
from passloc.geometry import ServiceRegion, SubarrayGeometry, build_mw_layout


@pytest.fixture(scope="module")
def sub(half_wave):
    return SubarrayGeometry(np.array([0.0, 0.0, 2.0]), 16, half_wave)


# --- angle grid --------------------------------------------------------------


def test_uniform_cosine_grid_shape(half_wave):
    g = AngleGrid.uniform_cosine(64)
    v = g.values
    assert g.g == 64
    assert v[0] == -0.999 and v[-1] == 0.999
    assert np.all(np.diff(v) > 0)
    assert np.allclose(v + v[::-1], 0.0, atol=1e-12)


def test_uniform_cosine_grid_is_built_once_and_read_only(region):
    cfg = EstimatorConfig(region=region, g_theta=96)
    assert cfg.grid is cfg.grid is AngleGrid.uniform_cosine(96)
    assert np.array_equal(cfg.grid.values, np.linspace(-0.999, 0.999, 96))
    with pytest.raises(ValueError):
        cfg.grid.values[0] = 0.0


def test_angle_grid_validation():
    with pytest.raises(ValueError):
        AngleGrid(np.array([0.5]))
    with pytest.raises(ValueError):
        AngleGrid(np.array([0.2, 0.1, -0.1, -0.2]))  # not increasing
    with pytest.raises(ValueError):
        AngleGrid(np.array([-1.0, 0.0, 1.0]))  # touches the endfire poles
    with pytest.raises(ValueError):
        AngleGrid(np.array([-0.5, 0.0, 0.7]))  # asymmetric
    with pytest.raises(ValueError, match="angle grid needs at least two points"):
        AngleGrid.uniform_cosine(1)  # __post_init__'s check, the only one


# --- element ranges ----------------------------------------------------------


def _ranges(r, cosang, n, d, dh=0.0):
    """Element ranges as build_dp_dictionary computes them: the root of _squared_ranges."""
    return np.sqrt(_squared_ranges(r, np.asarray(cosang, dtype=float),
                                   np.asarray(n, dtype=float) * d, dh))


def test_reference_element_range_is_anchor_distance():
    assert _ranges(5.0, 0.3, 0, d=0.01) == pytest.approx(5.0)
    assert _ranges(5.0, 0.3, 0, d=0.01, dh=2.0) == pytest.approx(np.sqrt(29.0))


def test_collinear_target_range_is_axis_difference():
    assert _ranges(5.0, 1.0, 3, d=1.0) == pytest.approx(2.0)
    assert _ranges(2.0, 1.0, 5, d=1.0) == pytest.approx(3.0)
    assert _ranges(5.0, -1.0, 3, d=1.0) == pytest.approx(8.0)


def test_ranges_match_coordinate_geometry(rng):
    """Law-of-cosines ranges equal distances computed in Cartesian coordinates."""
    for _ in range(300):
        r = rng.uniform(0.5, 40.0)
        c = rng.uniform(-0.99, 0.99)
        n = rng.integers(0, 64)
        d = rng.uniform(0.004, 0.02)
        dh = rng.uniform(0.0, 3.0)
        target = np.array([r * c, r * np.sqrt(1 - c * c), -dh])
        pa = np.array([n * d, 0.0, 0.0])
        assert _ranges(r, c, n, d, dh=dh) == pytest.approx(
            np.linalg.norm(target - pa), rel=1e-12
        )


def test_range_validation(sub, radio):
    with pytest.raises(ValueError, match="anchor distance must be positive"):
        build_dp_dictionary(sub, -1.0, AngleGrid.uniform_cosine(8), radio)
    with pytest.raises(ValueError, match="anchor distance must be positive"):
        build_dp_dictionary(sub, np.array([3.0, 0.0]), np.array([0.2, -0.3]), radio)
    with pytest.raises(ValueError, match="one per cosine"):
        build_dp_dictionary(sub, np.array([3.0, 4.0]), AngleGrid.uniform_cosine(8), radio)
    # a target exactly on element 3 has a zero squared range: no usable column
    assert _squared_ranges(3.0, 1.0, 3.0, 0.0) == 0.0
    v = np.nextafter(1.0, 0.0)  # one ulp inside the grid's open interval
    with pytest.raises(DictionaryError, match="geometrically invalid"):
        build_dp_dictionary(sub, 5 * sub.spacing * (1 - 2e-16), np.array([v]), radio)


# --- channel-domain atoms ----------------------------------------------------


def test_atom_amplitudes_follow_spherical_law(sub, radio):
    grid = AngleGrid.uniform_cosine(32)
    dic = build_dp_dictionary(sub, 6.0, grid, radio)
    ranges = _ranges(6.0, grid.values[None, :], np.arange(16)[:, None], sub.spacing)
    want = radio.wavelength / (4 * np.pi * ranges) / np.sqrt(16)
    assert np.allclose(np.abs(dic.atoms), want, rtol=1e-12)
    assert dic.g == 32


def test_single_element_atom(radio, half_wave):
    lone = SubarrayGeometry(np.array([0.0, 0.0, 2.0]), 1, half_wave)
    dic = build_dp_dictionary(lone, 4.0, AngleGrid.uniform_cosine(8), radio)
    want = radio.wavelength / (4 * np.pi * 4.0) * np.exp(-1j * radio.wavenumber * 4.0)
    assert np.allclose(dic.atoms, want, rtol=1e-12)


def test_mirrored_targets_share_one_atom(sub, radio):
    """Targets reflected about the guide axis have equal direction cosines,
    so one dictionary column represents both."""
    r, c, dh = 7.0, 0.35, 2.0
    s = np.sqrt(1 - c * c)
    up = np.array([r * c, r * s, 0.0])
    down = np.array([r * c, -r * s, 0.0])
    b_up = path_vector(sub.pa_positions, up, radio)
    b_down = path_vector(sub.pa_positions, down, radio)
    assert np.array_equal(b_up, b_down)
    ranges = _ranges(r, c, np.arange(16), sub.spacing, dh=dh)
    atom = radio.wavelength / (4 * np.pi * ranges) * np.exp(-1j * radio.wavenumber * ranges)
    assert np.allclose(b_up, atom, rtol=1e-12)


def test_dictionary_rebuild_is_bitwise_deterministic(sub, radio):
    grid = AngleGrid.uniform_cosine(128)
    a = build_dp_dictionary(sub, 9.0, grid, radio)
    b = build_dp_dictionary(sub, 9.0, grid, radio)
    assert np.array_equal(a.atoms, b.atoms)
    assert np.array_equal(a.cosines, b.cosines)
    # a column's bits do not depend on the columns built with it
    for idx in (np.arange(0, 128, 8), np.array([3, 4, 5, 77, 127]), np.array([64])):
        part = build_dp_dictionary(sub, 9.0, grid.values[idx], radio)
        assert np.array_equal(part.atoms, a.atoms[:, idx])
        assert np.array_equal(part.cosines, grid.values[idx])


def _closed_form_atoms(sub, r, cosines, radio, dh):
    ranges = _ranges(r, cosines[None, :], np.arange(sub.n_pas)[:, None], sub.spacing, dh=dh)
    atoms = (radio.wavelength / (FOUR_PI * ranges)) * np.exp(-1j * radio.wavenumber * ranges)
    return atoms / np.sqrt(sub.n_pas)


# a 3-D (slant) anchor distance carries no separate height gap
@pytest.mark.parametrize("r, dh", [(6.0, 2.0), (0.3, 0.0), (11.5, 0.0)],
                         ids=["6.0-2d-2.0", "0.3-2d-0.0", "11.5-3d-0.0"])
def test_atoms_equal_the_closed_form_bit_for_bit(sub, radio, r, dh):
    grid = AngleGrid.uniform_cosine(256)
    dic = build_dp_dictionary(sub, r, grid, radio, dh=dh)
    assert np.array_equal(dic.atoms, _closed_form_atoms(sub, r, grid.values, radio, dh))
    assert np.array_equal(dic.cosines, grid.values)
    assert dic.atoms.flags.f_contiguous


def test_a_geometrically_invalid_column_raises_in_channel_builds(sub, radio):
    # At an anchor distance of exactly 5 element spacings, an endfire cosine
    # one ulp below 1 puts element 5 on the target: its squared range rounds to 0.
    v = np.nextafter(1.0, 0.0)
    grid = AngleGrid(np.array([-v, -0.5, 0.0, 0.5, v]))
    r = 5 * sub.spacing * (1 - 2e-16)
    assert _squared_ranges(r, v, 5 * sub.spacing, 0.0) <= 0.0
    with pytest.raises(DictionaryError, match="geometrically invalid"):
        build_dp_dictionary(sub, r, grid, radio)
    with pytest.raises(DictionaryError, match="geometrically invalid"):
        build_polar_dictionary(sub, radio, grid, [r, 3.0])


@settings(max_examples=200, deadline=None)
@given(g=st.integers(2, 2048), r=st.floats(1e-3, 1e3), n_pas=st.integers(1, 128),
       spacing=st.floats(1e-4, 0.1), dh=st.floats(0.0, 10.0))
def test_every_uniform_cosine_column_is_geometrically_valid(g, r, n_pas, spacing, dh):
    """The GRID_CLIP bound: no uniform_cosine grid has a column on an element."""
    sub = SubarrayGeometry(np.array([0.0, 0.0, 2.0]), n_pas, spacing)
    grid = AngleGrid.uniform_cosine(g)
    assert build_dp_dictionary(sub, r, grid, RadioConfig(frequency=28e9), dh).g == g


def test_polar_atoms_are_column_major(sub, radio):
    polar = build_polar_dictionary(sub, radio, AngleGrid.uniform_cosine(32), [3.0, 9.0])
    assert polar.atoms.flags.f_contiguous


def _phase_atoms_error(sub, radio, grid, rings, dh, path) -> float:
    """phase_atoms' largest relative element error against float64 builds times exp(-j k path)."""
    got = phase_atoms(sub, radio, *polar_columns(grid, rings), dh, path)
    assert got.dtype == np.complex64 and got.flags.c_contiguous
    ramp = np.ones(sub.n_pas) if path is None else np.exp(-1j * radio.wavenumber * path)
    want = np.hstack([ramp[:, None] * build_dp_dictionary(sub, r, grid, radio, dh=dh).atoms
                      for r in rings])
    return float(np.max(np.abs(got - want) / np.abs(want)))


@settings(max_examples=200, deadline=None)
@given(r=st.floats(1e-3, 1e3), n_pas=st.integers(1, 128), spacing=st.floats(1e-3, 0.1),
       dh=st.floats(0.0, 10.0), g=st.integers(2, 64), x0=st.floats(0.0, 30.0),
       guided=st.booleans())
def test_phase_atoms_stay_within_their_error_bound(r, n_pas, spacing, dh, g, x0, guided):
    """k r reaches 5.9e5 rad at 28 GHz and 1 km; the phases are reduced to turns in float64."""
    radio = RadioConfig(frequency=28e9)
    sub = SubarrayGeometry(np.array([x0, 0.0, 2.0]), n_pas, spacing)
    path = radio.n_eff * sub.pa_positions[:, 0] if guided else None
    rings = [r, 1.5 * r]
    assert _phase_atoms_error(sub, radio, AngleGrid.uniform_cosine(g), rings, dh, path) \
        <= PHASE_ATOMS_ERROR


def test_phase_atoms_at_the_nf_sweep_size(radio, region):
    """N = 96 guided atoms, 16 rings of 1,024 cosines: polar_dictionary's build."""
    sub = SubarrayGeometry(np.array([0.0, 15.0, 2.0]), 96, radio.wavelength / 2.0)
    rings = default_polar_rings(region, 16)
    error = _phase_atoms_error(sub, radio, AngleGrid.uniform_cosine(1024), rings, 2.0,
                               radio.n_eff * sub.pa_positions[:, 0])
    assert error <= PHASE_ATOMS_ERROR


def test_phase_atoms_enumerate_rings_like_the_polar_build(sub, radio):
    grid, rings = AngleGrid.uniform_cosine(16), [2.0, 5.0, 9.0]
    cosines, ring_distances = polar_columns(grid, rings)
    assert np.array_equal(cosines, np.tile(grid.values, 3))
    assert np.array_equal(ring_distances, np.repeat(rings, 16))
    stacked = phase_atoms(sub, radio, cosines, ring_distances)
    for k, r in enumerate(rings):
        assert np.array_equal(stacked[:, 16 * k:16 * (k + 1)], phase_atoms(sub, radio, grid, r))
    subset = grid.values[[1, 4, 5]]  # a column's values do not depend on its neighbours
    assert np.array_equal(phase_atoms(sub, radio, subset, 5.0),
                          stacked[:, 16 + np.array([1, 4, 5])])


def test_one_distance_per_column_builds_each_column_as_its_own_distance_does(sub, radio):
    """Columns at many distances, in any order, in one call: every column's bits are those of a
    build at its own distance alone, in both builds, across phase_atoms' blocks."""
    rng = np.random.default_rng(4)
    cosines = rng.uniform(-0.99, 0.99, 5000)
    r = rng.choice([0.7, 3.0, 12.5, 40.0], cosines.size)
    screen = phase_atoms(sub, radio, cosines, r, 1.5)
    exact = build_dp_dictionary(sub, r, cosines, radio, dh=1.5)
    assert exact.atoms.flags.f_contiguous and np.array_equal(exact.r_param, r)
    for d in np.unique(r):
        on = np.flatnonzero(r == d)
        order = on[np.argsort(cosines[on])]
        assert np.array_equal(screen[:, order], phase_atoms(sub, radio, cosines[order], d, 1.5))
        alone = build_dp_dictionary(sub, d, cosines[order], radio, dh=1.5)
        assert np.array_equal(exact.atoms[:, order], alone.atoms)


def test_phase_atoms_validation(sub, radio):
    grid = AngleGrid.uniform_cosine(8)
    for rings in ([0.0], [3.0, 2.0], [], [2.0, 2.0]):
        with pytest.raises(ValueError, match="distance grid"):
            polar_columns(grid, rings)
    for cosines in ([0.1, 0.1], [0.5, 1.0], [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            polar_columns(np.array(cosines), [3.0])
    for cosines in ([0.5, 1.0], [[0.1, 0.2]], []):  # one column per cosine, in any order
        with pytest.raises(ValueError, match="strictly inside"):
            phase_atoms(sub, radio, np.array(cosines), 3.0)
    for distances in (0.0, [3.0, -1.0], [3.0, 2.0, 1.0]):
        with pytest.raises(ValueError, match="anchor distance"):
            phase_atoms(sub, radio, np.array([0.1, 0.1]), distances)
    v = np.nextafter(1.0, 0.0)
    with pytest.raises(DictionaryError, match="geometrically invalid"):
        phase_atoms(sub, radio, *polar_columns(np.array([-0.5, v]),
                                               [5 * sub.spacing * (1 - 2e-16), 3.0]))


def test_3d_atoms_with_zero_height_gap_match_planar(sub, radio):
    """3-D dictionaries carry no height gap: their slant distance holds it."""
    tall = ServiceRegion(30.0, 30.0, 6.0, (0.0, 3.0))
    assert EstimatorConfig(region=tall, fixed_height=1.0).dh == 5.0
    slant_cfg = EstimatorConfig(region=tall, mode="3d", fixed_height=1.0)
    assert slant_cfg.dh == 0.0
    grid = AngleGrid.uniform_cosine(64)
    flat = build_dp_dictionary(sub, 8.0, grid, radio, dh=0.0)
    slant = build_dp_dictionary(sub, 8.0, grid, radio, dh=slant_cfg.dh)
    assert np.array_equal(flat.atoms, slant.atoms)


def test_dictionary_validation(sub, radio):
    with pytest.raises(ValueError):
        build_dp_dictionary(sub, 0.0, AngleGrid.uniform_cosine(8), radio)
    for cosines in ([0.1, 0.1], [0.2, -0.3], [0.5, 1.0], [[0.1, 0.2]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_dp_dictionary(sub, 3.0, np.array(cosines), radio)


# --- projection --------------------------------------------------------------


def _live_w(sub, radio, slots=24, seed=0):
    rng = np.random.default_rng(seed)
    rows = (rng.random((slots, sub.n_pas)) < 0.5).astype(np.uint8)
    rows[rows.sum(axis=1) == 0, 0] = 1
    return measurement_matrix(sub, rows, radio)


def test_projection_is_w_times_the_atoms(sub, radio):
    dic = build_dp_dictionary(sub, 6.0, AngleGrid.uniform_cosine(64), radio)
    w = _live_w(sub, radio)
    phi = project_dictionary(dic, w)
    assert phi.shape == (24, 64)
    assert np.array_equal(phi, w @ dic.atoms)
    with pytest.raises(ValueError):
        project_dictionary(dic, np.ones((4, 3)))  # width mismatch


def test_projection_matches_scalar_reference(sub, radio):
    dic = build_dp_dictionary(sub, 5.0, AngleGrid.uniform_cosine(8), radio)
    w = _live_w(sub, radio, slots=6, seed=1)
    phi = project_dictionary(dic, w)
    for g in range(8):
        col = np.array([sum(w[t, n] * dic.atoms[n, g] for n in range(16)) for t in range(6)])
        assert np.allclose(phi[:, g], col, rtol=1e-12, atol=0.0)


def test_on_grid_target_maximizes_its_own_column(region, radio, half_wave):
    """A noiseless measurement of an on-grid target correlates highest with
    exactly the matching column."""
    lay = build_mw_layout(region, 3, 16, half_wave)
    grid = AngleGrid.uniform_cosine(64)
    for m, g_true in ((0, 5), (1, 40), (2, 63)):
        sub = lay.subarrays[m]
        c = grid.values[g_true]
        r = 9.0
        target = sub.reference_position + np.array(
            [r * c, r * np.sqrt(1 - c * c), -sub.reference_position[2]]
        )
        w = _live_w(sub, radio, seed=m)
        y = w @ path_vector(sub.pa_positions, target, radio)
        dic = build_dp_dictionary(sub, r, grid, radio, dh=sub.reference_position[2])
        assert omp_direction(y, w, dic).grid_index == g_true


# --- polar variant -----------------------------------------------------------


def test_polar_single_ring_equals_dp(sub, radio):
    grid = AngleGrid.uniform_cosine(32)
    dp = build_dp_dictionary(sub, 7.0, grid, radio)
    polar = build_polar_dictionary(sub, radio, grid, [7.0])
    assert np.array_equal(polar.atoms, dp.atoms)
    assert np.all(polar.ring_distances == 7.0)


def test_polar_enumerates_rings_ring_major(sub, radio):
    grid = AngleGrid.uniform_cosine(16)
    rings = [4.0, 8.0, 16.0]
    polar = build_polar_dictionary(sub, radio, grid, rings)
    assert polar.atoms.shape == (16, 48)
    assert np.array_equal(polar.ring_distances, np.repeat(rings, 16))
    assert np.array_equal(polar.cosines, np.tile(grid.values, 3))
    with pytest.raises(ValueError):
        build_polar_dictionary(sub, radio, grid, [8.0, 4.0])


def test_polar_build_in_place_equals_stacked_rings(sub, radio):
    """Each ring written into one array gives the bits of stacking per-ring builds."""
    grid = AngleGrid.uniform_cosine(64)
    rings = np.geomspace(0.5, 40.0, 5)
    polar = build_polar_dictionary(sub, radio, grid, rings, dh=2.0)
    stacked = [build_dp_dictionary(sub, r, grid, radio, dh=2.0) for r in rings]
    assert np.array_equal(polar.atoms, np.hstack([d.atoms for d in stacked]))
    assert polar.atoms.flags.f_contiguous and polar.guided is None


def test_polar_dictionary_more_coherent_than_single_ring(sub, radio):
    """Adding distance rings can only tighten the worst column pair."""
    grid = AngleGrid.uniform_cosine(64)
    rings = default_polar_rings(ServiceRegion(30.0, 30.0, 2.0), count=8)
    dp = build_dp_dictionary(sub, float(rings[0]), grid, radio)
    polar = build_polar_dictionary(sub, radio, grid, rings)
    assert mutual_coherence(polar.atoms) > mutual_coherence(dp.atoms)


def test_default_polar_rings(region):
    rings = default_polar_rings(region, count=16)
    assert rings.size == 16
    assert rings[0] == 1.0
    assert rings[-1] == pytest.approx(region.diagonal)
    assert np.all(np.diff(rings) > 0)


def test_mutual_coherence_hand_values():
    cols = np.array([[1.0, np.sqrt(0.5)], [0.0, np.sqrt(0.5)]])
    assert mutual_coherence(cols) == pytest.approx(np.sqrt(0.5))
    assert mutual_coherence(np.eye(3)) == 0.0
