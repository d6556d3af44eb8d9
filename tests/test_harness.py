"""Metrics, experiment configs, seed streams, trials, and sweeps."""

import dataclasses
import inspect

import numpy as np
import pytest

import passloc.estimator
from passloc.crlb import calibrate_bearing_sigma
from passloc.dictionary import DictionaryError
from passloc.estimator import EstimatorConfig
from passloc.geometry import SingularGeometryError
from passloc.harness import (
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    nmse,
    rmse,
    run_sweep,
    run_trial,
    scenario_layout,
    to_db,
)
import passloc.harness as harness_mod


# --- metrics -----------------------------------------------------------------


def test_rmse_hand_values():
    assert rmse([0.0, 0.0, 0.0]) == 0.0
    assert rmse([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    with pytest.raises(ValueError):
        rmse([])


def test_rmse_matches_radial_second_moment(rng):
    # norms of isotropic 2d gaussian errors: E[e^2] = 2 sigma^2
    sigma = 0.7
    e = np.linalg.norm(rng.normal(0, sigma, size=(10_000, 2)), axis=1)
    assert rmse(e) == pytest.approx(sigma * np.sqrt(2.0), rel=0.03)


def test_nmse_identities(rng):
    h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert nmse(h, h) == 0.0
    assert nmse(h, np.zeros_like(h)) == pytest.approx(1.0)
    for delta in (0.1, 0.5, 2.0):
        want = 4.0 * np.sin(delta / 2.0) ** 2
        assert nmse(h, np.exp(1j * delta) * h) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        nmse(h, h[:10])
    with pytest.raises(ValueError):
        nmse(np.zeros(4), np.ones(4))


def test_to_db_floor():
    assert to_db(1.0) == 0.0
    assert to_db(0.0) == -120.0
    assert to_db(1e-13) == -120.0
    assert to_db(0.25) == pytest.approx(-6.0206, abs=1e-3)
    assert to_db(1e-5, floor_db=-40.0) == -40.0


# --- config ------------------------------------------------------------------


def test_config_normalizes_and_validates():
    cfg = ExperimentConfig(scenarios=["MW", "sw"], snr_db=10.0)
    assert cfg.scenarios == ("mw", "sw")
    assert cfg.snr_db == (10.0,)
    with pytest.raises(ValueError):
        ExperimentConfig(scenarios=("outdoor",))
    with pytest.raises(ValueError):
        ExperimentConfig(mode="planar")
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"trials": 3, "snr_dbs": [10.0]})
    for bad in ({"trials": 0}, {"trials": -1}, {"scenarios": []}, {"snr_db": []}):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    with pytest.raises(ValueError):
        dataclasses.replace(ExperimentConfig(), trials=0)
    for field, bad in (("l", -1), ("iters", 0), ("m", 0), ("n", 0), ("slots_per_subarray", 0),
                       ("nf_n", 0), ("nf_rings", 0)):
        with pytest.raises(ValueError, match=f"config field '{field}' must be at least"):
            ExperimentConfig(**{field: bad})
    for field, bad in (("density", 0.0), ("density", 1.5), ("mode", "4d")):
        with pytest.raises(ValueError, match=f"config field '{field}' must be"):
            ExperimentConfig(**{field: bad})
    assert ExperimentConfig(density=1.0).density == 1.0


def test_g_theta_below_two_is_rejected_at_config_time(region):
    for g in (1, 0, -4):
        with pytest.raises(ValueError, match="g_theta"):
            EstimatorConfig(region=region, g_theta=g)
        with pytest.raises(ValueError, match="g_theta"):
            ExperimentConfig(g_theta=g)
        with pytest.raises(ValueError, match="g_theta"):
            dataclasses.replace(ExperimentConfig(), g_theta=g)
    assert EstimatorConfig(region=region, g_theta=2).g_theta == 2


@pytest.mark.parametrize("field, value", [
    ("trials", "3"), ("m", 3.0), ("seed", None), ("l", True), ("g_theta", 512.0),
    ("nf_rings", [16]), ("size_x", "30"), ("density", False), ("d", "0.005"),
    ("snr_db", ["25"]), ("snr_db", [10.0, True]), ("h_range", [0.0]),
    ("h_range", [0.0, "6"]), ("keep_records", 1),
])
def test_config_rejects_wrong_value_types(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_config_accepts_ints_for_numbers():
    cfg = ExperimentConfig(size_x=30, d=0.005, snr_db=[25], h_range=[0, 1], p0=np.float64(2.0))
    assert cfg.snr_db == (25.0,) and cfg.h_range == (0.0, 1.0)


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(scenarios=("mw", "sw2"), trials=7, snr_db=(5.0, 25.0), m=4)
    p = tmp_path / "cfg.json"
    cfg.to_json(p)
    back = ExperimentConfig.from_json(p)
    assert back.to_dict() == cfg.to_dict()


def test_config_defaults_are_the_estimator_defaults():
    cfg = ExperimentConfig()
    got = cfg.estimator_config()
    want = EstimatorConfig(region=cfg.region, num_paths=1)
    for f in dataclasses.fields(EstimatorConfig):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    calibration = inspect.signature(calibrate_bearing_sigma).parameters
    for name in ("g_theta", "slots_per_subarray", "density", "fixed_height"):
        assert calibration[name].default == getattr(cfg, name), name


def test_scenario_layouts_and_slot_budget():
    cfg = ExperimentConfig(m=3, n=32, slots_per_subarray=64)
    mw, mw_slots = scenario_layout(cfg, "mw")
    sw, sw_slots = scenario_layout(cfg, "sw")
    sw2, sw2_slots = scenario_layout(cfg, "sw2")
    nf, nf_slots = scenario_layout(cfg, "nf")
    # the single guide measures its subarrays one block at a time, so the
    # total pilot budget scales with the subarray count
    assert (mw_slots, sw_slots, sw2_slots, nf_slots) == (64, 192, 128, 64)
    assert (mw.m, sw.m, sw2.m, nf.m) == (3, 3, 2, 1)
    assert nf.pas_per_subarray == cfg.nf_n
    assert np.allclose(nf.reference_xy, [[0.0, 15.0]])
    with pytest.raises(ValueError):
        scenario_layout(cfg, "ula")


# --- seed streams --------------------------------------------------------------


def test_scene_stream_is_scenario_and_snr_blind():
    a = derive_seed(11, trial=4, stream=0)
    assert derive_seed(11, 4, 0, scenario="mw", snr_index=3) == a
    assert derive_seed(11, 4, 0, scenario="sw", snr_index=7) == a
    assert derive_seed(11, 5, 0) != a


def test_other_streams_fold_in_scenario_and_snr():
    base = derive_seed(11, 4, 1, scenario="mw", snr_index=0)
    assert derive_seed(11, 4, 1, scenario="mw", snr_index=0) == base
    assert derive_seed(11, 4, 1, scenario="sw", snr_index=0) != base
    assert derive_seed(11, 4, 1, scenario="mw", snr_index=1) != base
    assert derive_seed(11, 4, 2, scenario="mw", snr_index=0) != base


# --- trials ---------------------------------------------------------------------


def test_noiseless_trial_recovers_user():
    # trial 1 draws an interior scene; scenes hugging the boundary between
    # two anchors are the known hard case and are covered by the
    # median-level acceptance checks instead
    cfg = ExperimentConfig(scenarios=("mw",), trials=1, snr_db=(np.inf,), g_theta=2048)
    rec = run_trial(cfg, "mw", np.inf, 0, trial=1)
    assert not rec.failed
    assert rec.position_error < 1e-2
    assert rec.nmse_linear < 1e-4
    assert rec.wall_time_s >= 0.0
    assert len(rec.positions) == 1
    assert rec.scenario == "mw"


def test_trials_share_scenes_across_scenarios():
    cfg = ExperimentConfig(trials=1, snr_db=(20.0,))
    a = run_trial(cfg, "mw", 20.0, 0, trial=3)
    b = run_trial(cfg, "sw2", 20.0, 0, trial=3)
    assert a.scene_points == b.scene_points
    c = run_trial(cfg, "mw", 20.0, 0, trial=4)
    assert c.scene_points != a.scene_points


def test_nf_trial_alone_matches_its_sweep_record():
    # without a prebuilt dictionary run_trial must still honour cfg.nf_rings
    cfg = ExperimentConfig(scenarios=("nf",), trials=1, snr_db=(25.0,), seed=3, nf_rings=8,
                           keep_records=True)
    swept = run_sweep(cfg).records[0]
    alone = run_trial(cfg, "nf", 25.0, 0, trial=0)
    assert not alone.failed
    assert alone.positions == swept.positions
    assert alone.position_error == swept.position_error
    assert alone.nmse_linear == swept.nmse_linear


def test_trial_failure_is_recorded_not_raised(monkeypatch):
    cfg = ExperimentConfig(trials=1, snr_db=(20.0,))
    for error in (DictionaryError, SingularGeometryError, np.linalg.LinAlgError):
        def boom(*args, **kwargs):
            raise error("synthetic estimator failure")

        monkeypatch.setattr(harness_mod, "run_omp_gcl", boom)
        rec = run_trial(cfg, "mw", 20.0, 0, trial=0)
        assert rec.failed
        assert rec.flags == ("trial-failed",)
        assert rec.error_message == f"{error.__name__}: synthetic estimator failure"
        assert np.isnan(rec.position_error)


def test_programming_error_stops_the_sweep(monkeypatch):
    def typo(subarray, *args, **kwargs):
        return subarray.n_elements  # SubarrayGeometry has n_pas

    monkeypatch.setattr(passloc.estimator, "build_dp_dictionary", typo)
    cfg = ExperimentConfig(scenarios=("mw",), trials=2, snr_db=(20.0,), g_theta=64)
    with pytest.raises(AttributeError, match="n_elements"):
        run_sweep(cfg)


# --- sweeps ---------------------------------------------------------------------


def test_small_sweep_aggregates(tmp_path):
    cfg = ExperimentConfig(
        scenarios=("mw",), trials=3, snr_db=(15.0, 25.0), keep_records=True,
        g_theta=512, seed=5,
    )
    calls = []
    result = run_sweep(cfg, progress=lambda rec: calls.append(rec.trial))
    assert len(result.rmse_rows) == 2
    assert len(result.nmse_rows) == 2
    assert len(result.records) == 6
    assert len(calls) == 6
    for row in result.rmse_rows:
        assert row["scenario"] == "mw"
        assert row["rmse_m"] >= 0.0
        assert row["median_m"] <= row["rmse_m"] * 3
        assert 0.0 <= row["flag_rate"] <= 1.0
        assert row["total_slots"] == 64
    result.write_csv(tmp_path)
    for name in ("rmse.csv", "nmse.csv", "meta.json"):
        assert (tmp_path / name).exists()
    header = (tmp_path / "rmse.csv").read_text().splitlines()
    assert header[0].startswith("# passloc sweep v")
    assert header[1] == "scenario,snr_db,rmse_m,median_m,flag_rate,total_slots"


def test_sweep_csv_bitwise_reproducible(tmp_path):
    cfg = dict(scenarios=("mw",), trials=3, snr_db=(18.0,), g_theta=512, seed=7)
    run_sweep(ExperimentConfig(**cfg)).write_csv(tmp_path / "a")
    run_sweep(ExperimentConfig(**cfg)).write_csv(tmp_path / "b")
    for name in ("rmse.csv", "nmse.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_aborts_when_most_trials_fail(monkeypatch):
    def always_fail(cfg, scenario, snr_db, snr_index, trial, polar_cache=None):
        return TrialRecord(
            scenario=scenario, snr_db=snr_db, trial=trial, scene_points=[],
            positions=[], position_error=float("nan"), path_errors=[],
            nmse_linear=float("nan"), flags=("trial-failed",), wall_time_s=0.0,
            failed=True, error_message="synthetic",
        )

    monkeypatch.setattr(harness_mod, "run_trial", always_fail)
    cfg = ExperimentConfig(scenarios=("mw",), trials=4, snr_db=(20.0,))
    with pytest.raises(RuntimeError, match="failed"):
        run_sweep(cfg)


def test_rmse_improves_from_low_to_high_snr():
    cfg = ExperimentConfig(
        scenarios=("mw",), m=4, trials=25, snr_db=(10.0, 25.0), seed=3, g_theta=1024,
    )
    result = run_sweep(cfg)
    by_snr = {row["snr_db"]: row for row in result.rmse_rows}
    assert by_snr[25.0]["median_m"] < by_snr[10.0]["median_m"]
