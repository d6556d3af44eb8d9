"""Channel synthesis, activation schedules, and pilot measurement."""

import cmath
import math

import numpy as np
import pytest

from passloc.channel import (
    RadioConfig,
    channel_vector,
    make_schedule,
    measure,
    path_vector,
    synthesize_paths,
    waveguide_vector,
)
from passloc.geometry import (
    Scene,
    ServiceRegion,
    SingularGeometryError,
    build_mw_layout,
    build_sw_layout,
    pa_user_distance,
    sample_scene,
)


# --- radio config ------------------------------------------------------------


def test_wavenumber_wavelength_identity(radio):
    assert radio.wavenumber * radio.wavelength == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert radio.wavelength == pytest.approx(299_792_458.0 / 28e9)


def test_radio_validation():
    with pytest.raises(ValueError):
        RadioConfig(frequency=0.0)
    with pytest.raises(ValueError):
        RadioConfig(frequency=28e9, n_eff=0.9)


# --- waveguide vector --------------------------------------------------------


def test_waveguide_vector_phase_ramp(region, radio, half_wave):
    lay = build_mw_layout(region, 1, 32, half_wave)
    g = waveguide_vector(lay.subarrays[0], radio)
    assert g[0] == pytest.approx(1.0 + 0.0j)  # anchor at x = 0
    assert np.allclose(np.abs(g), 1.0, atol=1e-14)
    # half-wavelength taps and n_eff = 1.4 give an in-guide step of 1.4*pi
    steps = g[1:] * np.conj(g[:-1])
    assert np.allclose(steps, np.exp(1.4j * np.pi), atol=1e-12)


# --- path vectors ------------------------------------------------------------


def test_los_amplitude_single_element(radio):
    pa = np.array([[0.0, 0.0, 2.0]])
    user = np.array([3.0, 4.0, 0.0])
    b = path_vector(pa, user, radio, "los")
    r = math.sqrt(29.0)
    assert abs(b[0]) == pytest.approx(radio.wavelength / (4 * np.pi * r), rel=1e-12)
    assert cmath.phase(b[0]) == pytest.approx(
        cmath.phase(cmath.exp(-1j * radio.wavenumber * r)), abs=1e-9
    )


def test_los_equidistant_elements_identical(radio):
    pa = np.array([[-1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])
    user = np.array([0.0, 5.0, 0.0])  # on the perpendicular bisector
    b = path_vector(pa, user, radio, "los")
    assert b[0] == pytest.approx(b[1], rel=1e-14)


def test_nlos_amplitude_carries_both_hops(radio):
    pa = np.array([[0.0, 0.0, 2.0]])
    scatterer = np.array([4.0, 3.0, 0.0])
    user = np.array([4.0, 3.0, 5.0])
    b = path_vector(pa, scatterer, radio, "nlos", user=user)
    r = math.sqrt(16 + 9 + 4)
    r_su = 5.0
    lam = radio.wavelength
    assert abs(b[0]) == pytest.approx(lam / ((4 * np.pi) ** 1.5 * r * r_su), rel=1e-12)
    # total phase is the sum of both hop delays
    want = -radio.wavenumber * (r + r_su)
    assert cmath.phase(b[0] * cmath.exp(-1j * want)) == pytest.approx(0.0, abs=1e-9)


def test_path_vector_takes_the_caller_s_pa_ranges(radio):
    pa = np.array([[0.0, 0.0, 2.0], [0.4, 0.0, 2.0], [0.8, 0.0, 2.0]])
    scatterer, user = np.array([4.0, 3.0, 0.0]), np.array([1.0, 7.0, 0.0])
    r = pa_user_distance(pa, scatterer)
    for kind in ("los", "nlos"):
        want = path_vector(pa, scatterer, radio, kind, user=user)
        assert np.array_equal(path_vector(pa, scatterer, radio, kind, user=user, ranges=r), want)


def test_nlos_requires_user_and_guards_coincidence(radio):
    pa = np.array([[0.0, 0.0, 2.0]])
    with pytest.raises(ValueError):
        path_vector(pa, [1.0, 1.0, 0.0], radio, "nlos")
    with pytest.raises(SingularGeometryError):
        path_vector(pa, [1.0, 1.0, 0.0], radio, "nlos", user=[1.0, 1.0, 0.0])
    with pytest.raises(SingularGeometryError):
        path_vector(pa, [0.0, 0.0, 2.0], radio, "los")


def test_channel_against_scalar_reference(region, radio, half_wave):
    """Independent per-element recomputation with python scalars."""
    lay = build_mw_layout(region, 2, 8, half_wave)
    scene = sample_scene(region, l=2, rng_seed=5)
    paths = synthesize_paths(lay, scene, radio)
    lam, k = radio.wavelength, radio.wavenumber
    for m, sub in enumerate(lay.subarrays):
        h = channel_vector(paths[m])
        for n, pa in enumerate(sub.pa_positions):
            r_u = math.dist(pa, scene.user)
            want = (lam / (4 * math.pi * r_u)) * cmath.exp(-1j * k * r_u)
            for sc in scene.scatterers:
                r_s = math.dist(pa, sc)
                r_su = math.dist(sc, scene.user)
                amp = lam / ((4 * math.pi) ** 1.5 * r_s * r_su)
                want += amp * cmath.exp(-1j * k * (r_s + r_su))
            assert h[n] == pytest.approx(want, rel=1e-12), (m, n)


def test_synthesize_orders_direct_path_first(region, radio, half_wave):
    lay = build_sw_layout(region, 2, 8, half_wave)
    scene = sample_scene(region, l=2, rng_seed=1)
    paths = synthesize_paths(lay, scene, radio)
    assert paths.shape == (2, 3, 8)
    for m, sub in enumerate(lay.subarrays):
        pa = sub.pa_positions
        assert np.array_equal(paths[m, 0], path_vector(pa, scene.user, radio, "los"))
        # scatterers follow in scene order, each carrying its r_su leg
        for i, sc in enumerate(scene.scatterers):
            want = path_vector(pa, sc, radio, "nlos", user=scene.user)
            assert np.array_equal(paths[m, 1 + i], want)


@pytest.mark.parametrize("builder", [build_sw_layout, build_mw_layout])
def test_synthesized_paths_equal_per_subarray_path_vectors(region, radio, half_wave, builder):
    lay = builder(region, 3, 8, half_wave)
    scene = sample_scene(region, l=2, rng_seed=3)
    paths = synthesize_paths(lay, scene, radio)
    assert paths.shape == (lay.m, scene.l + 1, lay.pas_per_subarray)
    for m, sub in enumerate(lay.subarrays):
        want = [path_vector(sub.pa_positions, scene.user, radio, "los")]
        want += [path_vector(sub.pa_positions, sc, radio, "nlos", user=scene.user)
                 for sc in scene.scatterers]
        assert np.array_equal(paths[m], np.stack(want))


def test_channel_vector_superposition(region, radio, half_wave):
    lay = build_mw_layout(region, 1, 8, half_wave)
    scene = sample_scene(region, l=0, rng_seed=2)
    paths = synthesize_paths(lay, scene, radio)[0]
    h = channel_vector(paths)
    assert np.array_equal(h, paths[0])
    assert np.allclose(channel_vector(np.concatenate([paths, paths])), 2.0 * h)
    with pytest.raises(ValueError):
        channel_vector([])
    with pytest.raises(ValueError):
        channel_vector(np.zeros((2, 0, 8), dtype=complex))


def test_channel_vector_superposes_every_subarray_at_once(region, radio, half_wave):
    lay = build_mw_layout(region, 3, 8, half_wave)
    scene = sample_scene(region, l=2, rng_seed=6)
    paths = synthesize_paths(lay, scene, radio)
    h = channel_vector(paths)
    assert h.shape == (3, 8)
    for m in range(3):
        assert np.array_equal(h[m], channel_vector(paths[m]))


# --- schedules ---------------------------------------------------------------


def test_sw_schedule_partitions_slots_into_blocks(region, half_wave):
    lay = build_sw_layout(region, 2, 8, d=half_wave)
    sch = make_schedule(lay, total_slots=8, rng_seed=0)
    assert sch.sw_blocks == ((0, 4), (4, 8))
    assert np.array_equal(sch.observed_slots(0), np.arange(0, 4))
    assert np.array_equal(sch.observed_slots(1), np.arange(4, 8))
    # only the block owner radiates: at most one live subarray per slot
    live = sch.activation.sum(axis=2) > 0
    assert np.all(live.sum(axis=1) <= 1)
    assert np.all(sch.activation[0:4, 1] == 0)


def test_mw_schedule_density_and_liveness(region, half_wave):
    lay = build_mw_layout(region, 3, 32, half_wave)
    sch = make_schedule(lay, total_slots=200, density=0.5, rng_seed=3)
    rate = sch.activation.mean()
    assert 0.4 < rate < 0.6
    assert np.all(sch.activation.sum(axis=2) > 0)  # every observed row is live
    assert np.array_equal(sch.observed_slots(2), np.arange(200))


def test_schedule_validation(region, half_wave):
    with pytest.raises(ValueError, match="at least 3 slots"):  # SW needs a block per subarray
        make_schedule(build_sw_layout(region, 3, 8, half_wave), total_slots=2)
    lay = build_mw_layout(region, 3, 8, half_wave)
    sch = make_schedule(lay, total_slots=2)  # MW: every subarray observes every slot
    assert sch.activation.shape == (2, 3, 8)
    assert sch.activation.any(axis=2).all()
    with pytest.raises(ValueError, match="at least 1 slots"):
        make_schedule(lay, total_slots=0)
    with pytest.raises(ValueError):
        make_schedule(lay, total_slots=16, density=0.0)
    with pytest.raises(ValueError):
        make_schedule(lay, total_slots=16, density=1.2)


def _row_loop_schedule(layout, total_slots, density, rng_seed):
    """make_schedule drawn one row per rng.random(n) call, each all-off row redrawn."""
    m, n = layout.m, layout.pas_per_subarray
    rng = np.random.default_rng(rng_seed)
    act = np.zeros((total_slots, m, n), dtype=np.uint8)

    def live_row():
        for _ in range(100):
            row = (rng.random(n) < density).astype(np.uint8)
            if row.any():
                return row
        row = np.zeros(n, dtype=np.uint8)
        row[rng.integers(n)] = 1
        return row

    if layout.structure.value == "sw":
        base = total_slots // m
        for k in range(m):
            for t in range(k * base, (k + 1) * base if k < m - 1 else total_slots):
                act[t, k] = live_row()
    else:
        for t in range(total_slots):
            for k in range(m):
                act[t, k] = live_row()
    return act


@pytest.mark.parametrize("density", [0.5, 0.02])
@pytest.mark.parametrize("scenario", ["mw", "sw", "nf"])
def test_schedule_equals_the_row_loop(scenario, density):
    """One draw gives the row loop's bits; at density 0.02 some row of that draw
    is all-off, and the replayed stream still gives them."""
    from passloc.harness import ExperimentConfig, scenario_layout

    layout, slots = scenario_layout(ExperimentConfig(scenarios=[scenario]), scenario)
    rows = slots if layout.structure.value == "sw" else slots * layout.m
    for seed in range(5):
        sch = make_schedule(layout, slots, density, seed)
        assert np.array_equal(sch.activation, _row_loop_schedule(layout, slots, density, seed))
        draw = np.random.default_rng(seed).random((rows, layout.pas_per_subarray)) < density
        assert draw.any(axis=1).all() == (density == 0.5)


# --- measurement -------------------------------------------------------------


def _measured_setup(region, radio, half_wave, m=2, n=8, l=0, slots=16, seed=0):
    lay = build_mw_layout(region, m, n, half_wave)
    scene = sample_scene(region, l=l, rng_seed=seed)
    paths = synthesize_paths(lay, scene, radio)
    sch = make_schedule(lay, total_slots=slots, rng_seed=seed)
    return lay, scene, paths, sch


def test_noiseless_measurement_is_exact_projection(region, radio, half_wave):
    lay, scene, paths, sch = _measured_setup(region, radio, half_wave)
    ms = measure(lay, sch, paths, radio, snr_db=None)
    assert ms.noise_variance == 0.0
    for m in range(lay.m):
        h = channel_vector(paths[m])
        assert np.array_equal(ms.y[m], ms.w[m] @ h)
    ms_inf = measure(lay, sch, paths, radio, snr_db=np.inf)
    assert np.array_equal(ms_inf.y[0], ms.y[0])


def test_slot_scalar_against_stacked_evaluation(region, radio, half_wave):
    """Each stacked row equals the per-slot scalar sum over live elements."""
    lay, scene, paths, sch = _measured_setup(region, radio, half_wave, m=2, n=8)
    ms = measure(lay, sch, paths, radio, snr_db=None)
    for m, sub in enumerate(lay.subarrays):
        g = waveguide_vector(sub, radio)
        h = channel_vector(paths[m])
        for row, t in enumerate(ms.slot_ids[m]):
            mask = sch.activation[t, m]
            want = sum(
                complex(np.conj(mask[n] * g[n]) * h[n]) for n in range(8)
            )
            assert abs(ms.y[m][row] - want) < 1e-10 * max(1.0, abs(want))


def test_empirical_snr_matches_requested_level(region, radio, half_wave):
    lay, scene, paths, sch = _measured_setup(region, radio, half_wave, slots=1500, seed=6)
    clean = measure(lay, sch, paths, radio, snr_db=None)
    noisy = measure(lay, sch, paths, radio, snr_db=20.0, rng_seed=42)
    sig = np.concatenate([np.abs(c) ** 2 for c in clean.y])
    err = np.concatenate(
        [np.abs(noisy.y[m] - clean.y[m]) ** 2 for m in range(lay.m)]
    )
    snr_hat = 10.0 * np.log10(sig.mean() / err.mean())
    assert abs(snr_hat - 20.0) < 0.5


def test_noise_reproducible_from_seed(region, radio, half_wave):
    lay, scene, paths, sch = _measured_setup(region, radio, half_wave)
    a = measure(lay, sch, paths, radio, snr_db=10.0, rng_seed=9)
    b = measure(lay, sch, paths, radio, snr_db=10.0, rng_seed=9)
    c = measure(lay, sch, paths, radio, snr_db=10.0, rng_seed=10)
    assert np.array_equal(a.y[0], b.y[0])
    assert not np.array_equal(a.y[0], c.y[0])


def test_measure_validates_layout_schedule_pairing(region, radio, half_wave):
    lay, scene, paths, sch = _measured_setup(region, radio, half_wave)
    other = build_mw_layout(region, 3, 8, half_wave)
    with pytest.raises(ValueError):
        measure(other, sch, synthesize_paths(other, scene, radio), radio, None)
    with pytest.raises(ValueError):
        measure(lay, sch, paths[:1], radio, None)


@pytest.mark.parametrize("snr_db", [np.nan, -np.inf])
def test_measure_rejects_an_snr_that_is_neither_finite_nor_noiseless(region, radio, half_wave,
                                                                    snr_db):
    lay, scene, paths, sch = _measured_setup(region, radio, half_wave)
    with pytest.raises(ValueError, match="snr_db"):
        measure(lay, sch, paths, radio, snr_db)


def test_mirror_scene_channels_identical_under_sw(region, radio, half_wave):
    """Reflecting the scene about the guide line leaves every channel fixed.

    Scene heights and y coordinates are drawn on a dyadic lattice so the
    reflection 30 - y is itself exact in floating point.
    """
    lay = build_sw_layout(region, 3, 16, d=half_wave)
    rng = np.random.default_rng(12)
    y = rng.integers(1, 30 * 64, size=3) / 64.0
    x = rng.uniform(1.0, 29.0, size=3)
    pts = np.column_stack([x, y, np.zeros(3)])
    scene = Scene(pts[0], pts[1:])
    mirrored = pts.copy()
    mirrored[:, 1] = 30.0 - mirrored[:, 1]
    scene_m = Scene(mirrored[0], mirrored[1:])
    for pm, qm in zip(synthesize_paths(lay, scene, radio), synthesize_paths(lay, scene_m, radio)):
        assert np.array_equal(channel_vector(pm), channel_vector(qm))
