"""Geometry layer: regions, layouts, distances, scenes, plotting exports."""

import numpy as np
import pytest

from passloc.geometry import (
    LayoutError,
    ServiceRegion,
    SingularGeometryError,
    Structure,
    build_mw_layout,
    build_sw_layout,
    custom_layout,
    layout_points_csv,
    pa_user_distance,
    sample_scene,
    scene_points_csv,
)


# --- service region ----------------------------------------------------------


def test_region_rejects_bad_sides():
    with pytest.raises(ValueError):
        ServiceRegion(0.0, 30.0, 2.0)
    with pytest.raises(ValueError):
        ServiceRegion(30.0, -1.0, 2.0)


def test_region_rejects_height_band_outside_pa_height():
    with pytest.raises(ValueError):
        ServiceRegion(30.0, 30.0, 2.0, h_range=(0.0, 3.0))
    with pytest.raises(ValueError):
        ServiceRegion(30.0, 30.0, 2.0, h_range=(1.0, 0.5))
    with pytest.raises(ValueError):
        ServiceRegion(30.0, 30.0, 2.0, h_range=(-0.1, 0.5))


def test_region_center_diagonal_contains(region):
    assert np.allclose(region.center, [15.0, 15.0])
    assert region.diagonal == pytest.approx(np.hypot(30.0, 30.0))


# --- layouts -----------------------------------------------------------------


def test_sw_reference_points_two_and_three_guides(region, half_wave):
    lay = build_sw_layout(region, m=2, n=32, d=half_wave)
    assert np.allclose(lay.reference_positions, [[0, 15, 2], [30, 15, 2]])
    lay3 = build_sw_layout(region, m=3, n=32, d=half_wave)
    assert np.allclose(lay3.reference_xy[:, 0], [0.0, 15.0, 30.0])
    assert np.all(lay3.reference_xy[:, 1] == 15.0)


def test_sw_small_literal_layout(region):
    lay = build_sw_layout(region, m=2, n=2, d=1.0)
    assert np.allclose(lay.subarrays[0].pa_positions, [[0, 15, 2], [1, 15, 2]])


def test_pa_positions_are_cached_read_only_stacks(region, half_wave):
    lay = build_mw_layout(region, m=3, n=4, d=half_wave)
    assert lay.pa_positions.shape == (3, 4, 3)
    assert lay.reference_positions.shape == (3, 3)
    for m, sub in enumerate(lay.subarrays):
        assert np.array_equal(lay.pa_positions[m], sub.pa_positions)
        assert np.array_equal(lay.reference_positions[m], sub.reference_position)
    for arr in (lay.pa_positions, lay.reference_positions, lay.subarrays[0].pa_positions):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_sw_offsets_follow_exact_spacing_model(region, half_wave):
    # offsets are stored as n*d products, not accumulated sums
    lay = build_sw_layout(region, m=3, n=32, d=half_wave)
    for sub in lay.subarrays:
        assert np.array_equal(sub.offsets, half_wave * np.arange(32))
        assert sub.aperture == half_wave * 31


def test_sw_validation(region, half_wave):
    with pytest.raises(LayoutError):
        build_sw_layout(region, m=1, n=32, d=half_wave)
    with pytest.raises(LayoutError):
        build_sw_layout(region, m=3, n=1, d=half_wave)
    with pytest.raises(LayoutError):
        build_sw_layout(region, m=3, n=32, d=0.0)


def test_sw_rejects_aperture_reaching_next_anchor(region):
    # pitch is 30/(4-1) = 10 m; 32 PAs at half-meter spacing span 15.5 m
    with pytest.raises(LayoutError, match="overflow"):
        build_sw_layout(region, m=4, n=32, d=0.5)


def test_mw_four_guides_occupy_corners_with_inward_shift(region, half_wave):
    lay = build_mw_layout(region, m=4, n=32, d=half_wave)
    ap = lay.subarrays[0].aperture
    expect = np.array([[0, 0], [30 - ap, 0], [0, 30], [30 - ap, 30]])
    assert np.allclose(lay.reference_xy, expect)
    assert np.all(lay.reference_positions[:, 2] == 2.0)
    # shifted subarrays still end exactly on the boundary
    assert lay.subarrays[1].pa_positions[-1, 0] == pytest.approx(30.0)


def test_mw_anchor_sequence_extends_to_edge_midpoints(region, half_wave):
    assert np.allclose(build_mw_layout(region, 1, 32, half_wave).reference_xy, [[0, 0]])
    lay5 = build_mw_layout(region, 5, 32, half_wave)
    assert np.allclose(lay5.reference_xy[4], [15.0, 0.0])
    lay8 = build_mw_layout(region, 8, 32, half_wave)
    assert len({(round(x, 9), round(y, 9)) for x, y in lay8.reference_xy}) == 8


def test_mw_refs_non_collinear_from_three_guides(region, half_wave):
    for m in range(3, 9):
        xy = build_mw_layout(region, m, 32, half_wave).reference_xy
        centered = xy - xy.mean(axis=0)
        assert np.linalg.matrix_rank(centered, tol=1e-9) == 2, m


def test_mw_validation(region, half_wave):
    with pytest.raises(LayoutError):
        build_mw_layout(region, m=0, n=32, d=half_wave)
    with pytest.raises(LayoutError):
        build_mw_layout(region, m=9, n=32, d=half_wave)
    with pytest.raises(LayoutError):
        # aperture longer than the region side cannot be shifted inside
        build_mw_layout(region, m=2, n=64, d=0.5)


def test_custom_layout_places_anchors_verbatim(region, half_wave):
    lay = custom_layout(region, Structure.MW, [[1.0, 2.0], [3.0, 4.0]], 8, half_wave)
    assert np.allclose(lay.reference_xy, [[1, 2], [3, 4]])
    assert lay.m == 2 and lay.pas_per_subarray == 8


# --- distances ---------------------------------------------------------------


def test_distance_matches_3_4_5_triangle_with_height_gap():
    r = pa_user_distance([0.0, 0.0, 2.0], [3.0, 4.0, 0.0])
    assert r == pytest.approx(np.sqrt(29.0), abs=0.0)


def test_distance_simple_height_offset():
    assert pa_user_distance([0, 15, 2], [10, 15, 0]) == pytest.approx(np.sqrt(104.0))


def test_distance_guards_coincident_points():
    with pytest.raises(SingularGeometryError):
        pa_user_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(SingularGeometryError):
        pa_user_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0 + 1e-9])


def test_distance_rows_give_one_guarded_distance_each():
    pas = np.array([[0.0, 0.0, 2.0], [3.0, 4.0, 2.0], [6.0, 8.0, 2.0]])
    r = pa_user_distance(pas, [3.0, 4.0, 0.0])
    assert r.shape == (3,)
    assert r == pytest.approx([np.sqrt(29.0), 2.0, np.sqrt(29.0)], abs=1e-15)
    with pytest.raises(SingularGeometryError):
        pa_user_distance(pas, [3.0, 4.0, 2.0])  # one row coincides


def test_distance_symmetry_and_triangle_inequality(rng):
    for _ in range(200):
        a, b, c = rng.uniform(-10, 10, size=(3, 3))
        rab = pa_user_distance(a, b)
        assert rab == pa_user_distance(b, a)
        assert rab <= pa_user_distance(a, c) + pa_user_distance(c, b) + 1e-12


# --- scenes ------------------------------------------------------------------


def test_scene_sampling_reproducible_and_inside_region(region):
    s1 = sample_scene(region, l=3, rng_seed=7)
    s2 = sample_scene(region, l=3, rng_seed=7)
    assert np.array_equal(s1.points, s2.points)
    xy = s1.points[:, :2]
    assert np.all((0.0 <= xy) & (xy <= [region.size_x, region.size_y]))
    assert s1.l == 3 and s1.points.shape == (4, 3)


def test_scene_no_scatterers(region):
    s = sample_scene(region, l=0, rng_seed=0)
    assert s.scatterers.shape == (0, 3)
    assert s.points.shape == (1, 3)


def test_scene_heights_planar_and_volumetric():
    flat = ServiceRegion(30.0, 30.0, 2.0)
    s = sample_scene(flat, l=5, rng_seed=1, mode="2d", height=0.0)
    assert np.all(s.points[:, 2] == 0.0)
    tall = ServiceRegion(30.0, 30.0, 6.0, h_range=(0.0, 6.0))
    s3 = sample_scene(tall, l=20, rng_seed=2, mode="3d")
    assert np.all((s3.points[:, 2] >= 0.0) & (s3.points[:, 2] <= 6.0))
    assert np.std(s3.points[:, 2]) > 0.5  # genuinely spread, not stuck at one height
    with pytest.raises(ValueError):
        sample_scene(flat, l=1, rng_seed=0, mode="2d", height=1.0)


def test_scene_mean_position_close_to_region_center(region):
    pts = np.array([sample_scene(region, 0, rng_seed=k).user[:2] for k in range(10_000)])
    # uniform draws over a 30 m square: the empirical mean should sit within
    # 2 percent of the side length from the center
    assert np.all(np.abs(pts.mean(axis=0) - region.center) < 0.02 * 30.0)


# --- plotting exports --------------------------------------------------------


def test_points_csv_row_counts(region, half_wave, tmp_path):
    lay = build_mw_layout(region, 3, 8, half_wave)
    pa_path = tmp_path / "pas.csv"
    layout_points_csv(lay, pa_path)
    assert len(pa_path.read_text().strip().splitlines()) == 1 + 3 * 8

    scene = sample_scene(region, l=2, rng_seed=0)
    sc_path = tmp_path / "scene.csv"
    scene_points_csv(scene, sc_path)
    lines = sc_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 3
    assert lines[1].startswith("user,")
