"""Metrics, experiment configs, seed streams, trials, and sweeps."""

import dataclasses
import inspect
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import passloc.estimator
from passloc.channel import RadioConfig, make_schedule, measure, synthesize_paths
from passloc.dictionary import DictionaryError, default_polar_rings
from passloc.estimator import (EstimatorConfig, _start_distances, polar_dictionary,
                               run_omp_gcl, run_polar_baseline, start_dictionaries)
from passloc.geometry import (DomainError, Scene, ServiceRegion, SingularGeometryError, Structure,
                              custom_layout, sample_scene)
from passloc.harness import (
    ExperimentConfig,
    TrialRecord,
    derive_seed,
    nmse,
    rmse,
    run_sweep,
    run_trial,
    scenario_layout,
    simulate_trial,
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
    assert to_db(1e-12) == -120.0 < to_db(1.0000001e-12)


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
    ("h_range", [0.0, "6"]),
])
def test_config_rejects_wrong_value_types(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("kwargs, field, named", [
    ({"scenarios": ["sw2"], "mode": "3d"}, "mode", "sw2"),
    ({"scenarios": ["mw", "sw"], "m": 2, "mode": "3d"}, "mode", "mw"),
    ({"scenarios": ["sw"], "m": 2, "mode": "3d"}, "mode", "sw"),
    ({"seed": -1}, "seed", "-1"),
    ({"trials": 0}, "trials", "0"),
    ({"d": 0.0}, "d", "0.0"),
    ({"d": -0.005}, "d", "-0.005"),
    ({"fixed_height": 0.5}, "fixed_height", "0.5"),
    ({"fixed_height": 2.5, "h_range": (0.0, 2.0)}, "fixed_height", "2.5"),
    ({"snr_db": (25.0, float("nan"))}, "snr_db", "nan"),
    ({"snr_db": -math.inf}, "snr_db", "-inf"),
    ({"frequency": float("nan")}, "frequency", "nan"),
    ({"n_eff": math.inf}, "n_eff", "inf"),
    ({"size_y": -math.inf}, "size_y", "-inf"),
    ({"density": float("nan")}, "density", "nan"),
    ({"d": math.inf}, "d", "inf"),
    ({"h_range": (0.0, float("nan"))}, "h_range", "nan"),
], ids=["sw2-3d", "mw-m2-3d", "sw-m2-3d", "seed", "trials", "d-zero", "d-negative",
        "height-above-range", "height-above-pa", "snr-nan", "snr-minus-inf", "frequency-nan",
        "n-eff-inf", "size-minus-inf", "density-nan", "d-inf", "h-range-nan"])
def test_config_rejects_unrunnable_values_naming_the_field(kwargs, field, named):
    with pytest.raises(ValueError, match=f"config field '{field}'") as err:
        ExperimentConfig(**kwargs)
    assert named in str(err.value)


def test_config_keeps_runnable_3d_and_height_settings():
    assert ExperimentConfig(scenarios=["mw", "sw", "nf"], m=3, mode="3d").mode == "3d"
    assert ExperimentConfig(mode="3d", fixed_height=5.0).fixed_height == 5.0  # 2-D only
    assert ExperimentConfig(fixed_height=1.0, h_range=(0.0, 1.0)).fixed_height == 1.0


def test_config_accepts_ints_for_numbers():
    cfg = ExperimentConfig(size_x=30, d=0.005, snr_db=[25], h_range=[0, 1], n_eff=np.float64(1.5))
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
    assert cfg.radio == RadioConfig(cfg.frequency)
    assert cfg.region == ServiceRegion(cfg.size_x, cfg.size_y, cfg.h_pa)


def test_nf_rings_is_the_only_ring_count_default():
    """The layers below the harness take the ring count, or the built dictionary."""
    for fn, name in ((default_polar_rings, "count"), (polar_dictionary, "rings"),
                     (run_polar_baseline, "dictionary")):
        assert inspect.signature(fn).parameters[name].default is inspect.Parameter.empty, name
    assert "rings" not in inspect.signature(run_polar_baseline).parameters


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


@pytest.mark.parametrize("overrides", [
    pytest.param(dict(scenarios=("nf",), nf_rings=8), id="nf"),
    pytest.param(dict(scenarios=("mw",), l=1), id="mw-l1"),
    pytest.param(dict(scenarios=("mw",), m=4, mode="3d", h_pa=6.0, h_range=(0.0, 6.0)),
                 id="mw-3d"),
    pytest.param(dict(scenarios=("sw",)), id="sw"),
    pytest.param(dict(scenarios=("sw2",)), id="sw2"),
])
def test_trial_alone_matches_its_sweep_record(overrides):
    # run_trial builds its own atoms (nf: with cfg.nf_rings) when the sweep's are not
    # passed, and the sweep's second trial shows that its shared atoms carry nothing
    # over from the first
    cfg = ExperimentConfig(trials=2, snr_db=(25.0,), seed=3, **overrides)
    swept = run_sweep(cfg).records[1].to_dict()
    harness_mod._ATOMS.clear()  # so that run_trial builds its own atoms
    alone = run_trial(cfg, cfg.scenarios[0], 25.0, 0, trial=1).to_dict()
    assert not alone["failed"]
    for rec in (swept, alone):
        rec.pop("wall_time_s")
    assert alone == swept


def test_a_sweep_builds_each_start_dictionary_once(monkeypatch, one_process_sweep):
    # mw m=8 has 4 distinct anchor distances to the region center: corners, edge midpoints
    cfg = ExperimentConfig(scenarios=("mw",), m=8, l=1, trials=3, snr_db=(25.0,), seed=5,
                           g_theta=256)
    layout, _ = scenario_layout(cfg, "mw")
    r_start = set(_start_distances(layout, cfg.estimator_config()).tolist())
    built, directions = [], []
    real_build = passloc.estimator.build_dp_dictionary
    real_extract = passloc.estimator.extract_directions

    def build(sub, r_param, *args, **kwargs):
        built.append(r_param)
        return real_build(sub, r_param, *args, **kwargs)

    def extract(*args, **kwargs):
        directions.append(real_extract(*args, **kwargs))
        return directions[-1]

    monkeypatch.setattr(passloc.estimator, "build_dp_dictionary", build)
    monkeypatch.setattr(passloc.estimator, "extract_directions", extract)
    run_sweep(cfg)
    assert len(r_start) == 4
    # the certificates' builds take one distance per column: none is a start distance
    scalars = [r for r in built if np.ndim(r) == 0]
    assert not any(np.isin(list(r_start), r).any() for r in built if np.ndim(r))
    assert sorted(r for r in scalars if r in r_start) == sorted(r_start)
    assert set(built[:4]) == r_start  # before the first trial
    assert len(directions) >= 2 * cfg.trials  # every trial ran both paths


_ATOMS_BASE = dict(scenarios=("mw", "nf"), trials=2, snr_db=(20.0,), g_theta=64, n=8, nf_n=16,
                   nf_rings=2, h_range=(0.0, 1.0))


def _same_objects(a, b) -> bool:
    """Whether two scenario_atoms lists hold the same dictionary objects."""
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _same_atoms(a, b) -> bool:
    """Whether two scenario_atoms lists hold equal arrays."""
    def arrays(dic):
        return [x for x in (dic.cosines, dic.atoms, dic.ring_distances, dic.guided,
                            dic.guided_norms) if x is not None]
    return len(a) == len(b) and all(
        dx.r_param == dy.r_param and all(np.array_equal(x, y) for x, y in zip(arrays(dx), arrays(dy)))
        for dx, dy in zip(a, b))


def test_scenario_atoms_are_kept_across_seeds_trials_and_snrs(monkeypatch, one_process_sweep):
    cfg = ExperimentConfig(**_ATOMS_BASE)
    kept = {s: harness_mod.scenario_atoms(cfg, s) for s in cfg.scenarios}
    for change in (dict(seed=9), dict(trials=3), dict(snr_db=(5.0, 25.0))):
        other = dataclasses.replace(cfg, **change)
        assert all(_same_objects(harness_mod.scenario_atoms(other, s), kept[s])
                   for s in cfg.scenarios)
    used = []
    real = harness_mod.estimate

    def estimate(cfg, scenario, ms, layout, atoms):
        used.append((scenario, atoms))
        return real(cfg, scenario, ms, layout, atoms)

    monkeypatch.setattr(harness_mod, "estimate", estimate)
    run_sweep(dataclasses.replace(cfg, seed=4, trials=3))
    run_trial(dataclasses.replace(cfg, snr_db=(30.0,)), "nf", 30.0, 0, trial=1)
    assert len(used) == 7 and all(_same_objects(atoms, kept[s]) for s, atoms in used)


@pytest.mark.parametrize("field, value", [
    ("g_theta", 32), ("nf_rings", 3), ("nf_n", 12), ("n", 12), ("m", 4), ("d", 0.004),
    ("frequency", 30e9), ("n_eff", 1.5), ("size_x", 40.0), ("size_y", 40.0), ("h_pa", 3.0),
    ("h_range", (0.0, 1.5)), ("fixed_height", 0.5), ("mode", "3d"),
])
def test_scenario_atoms_are_rebuilt_when_a_field_they_read_changes(field, value):
    base = ExperimentConfig(**_ATOMS_BASE)
    changed = dataclasses.replace(base, **{field: value})
    for scenario in base.scenarios:
        kept = harness_mod.scenario_atoms(base, scenario)
        rebuilt = harness_mod.scenario_atoms(changed, scenario)
        assert not any(a is b for a, b in zip(rebuilt, kept))
        assert _same_objects(harness_mod.scenario_atoms(changed, scenario), rebuilt)
        again = harness_mod.scenario_atoms(base, scenario)  # one entry per scenario: rebuilt
        assert not any(a is b for a, b in zip(again, kept))
        harness_mod._ATOMS.clear()
        assert _same_atoms(rebuilt, harness_mod.scenario_atoms(changed, scenario))


def test_cold_and_warm_sweeps_write_identical_outputs(tmp_path):
    cfg = ExperimentConfig(**dict(_ATOMS_BASE, scenarios=("mw", "nf", "sw"), trials=3, l=1))
    results = []
    for name in ("cold", "warm"):
        result = run_sweep(cfg)
        result.write_csv(tmp_path / name)
        results.append([dict(r.to_dict(), wall_time_s=None) for r in result.records])
    for name in ("rmse.csv", "nmse.csv", "meta.json"):
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()
    assert results[0] == results[1]


def test_a_failed_atoms_build_keeps_nothing(monkeypatch):
    cfg = ExperimentConfig(**_ATOMS_BASE)
    calls = []

    def invalid(*args):
        calls.append(args)
        raise DictionaryError("a grid column is geometrically invalid")

    monkeypatch.setattr(harness_mod, "polar_dictionary", invalid)
    for _ in range(2):
        with pytest.raises(DictionaryError):
            harness_mod.scenario_atoms(cfg, "nf")
    assert len(calls) == 2 and "nf" not in harness_mod._ATOMS
    monkeypatch.undo()
    atoms = harness_mod.scenario_atoms(cfg, "nf")
    assert _same_objects(harness_mod.scenario_atoms(cfg, "nf"), atoms)


def test_polish_keeps_a_single_guide_fix_on_its_side_of_the_line():
    # trial 2 fuses to (5.85, 13.92), below the sw2 guide at y = 15; a search free to
    # cross the line followed a ridge of the refit gain to (16.08, 17.19). The user is
    # at (11.30, 13.45).
    cfg = ExperimentConfig(scenarios=("sw2",), trials=4, snr_db=(25.0,), g_theta=256, seed=2)
    rec = run_trial(cfg, "sw2", 25.0, 0, trial=2)
    assert "ambiguous" in rec.flags
    assert rec.positions[0][1] == pytest.approx(12.76, abs=0.01)


def test_3d_polish_on_one_guide_line_keeps_the_channel():
    # the fix starts at y = -0.69, below the box; clamped to the y = 0 face, a Newton
    # step along the radius around the line is cut off by that face, so polish must
    # move the height instead (a coordinate pattern search reached -42.7 dB here)
    cfg = ExperimentConfig(scenarios=("sw",), m=4, mode="3d", h_pa=6.0, h_range=(0.0, 3.0),
                           trials=200, snr_db=(25.0,), seed=11)
    rec = run_trial(cfg, "sw", 25.0, 0, trial=174)
    assert "ambiguous" in rec.flags
    assert 10.0 * np.log10(rec.nmse_linear) < -35.0


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


def test_sweep_meta_counts_failures_by_error_class(monkeypatch, tmp_path, one_process_sweep):
    real = harness_mod.run_omp_gcl
    errors = iter([DictionaryError, np.linalg.LinAlgError, DictionaryError])

    def fail_three_times(*args, **kwargs):
        error = next(errors, None)
        if error is not None:
            raise error("synthetic estimator failure")
        return real(*args, **kwargs)

    cfg = ExperimentConfig(scenarios=("mw",), trials=6, snr_db=(20.0,), g_theta=256, seed=4)
    run_sweep(cfg).write_csv(tmp_path / "clean")
    monkeypatch.setattr(harness_mod, "run_omp_gcl", fail_three_times)
    run_sweep(cfg).write_csv(tmp_path / "failing")
    clean = json.loads((tmp_path / "clean" / "meta.json").read_text())
    failing = json.loads((tmp_path / "failing" / "meta.json").read_text())
    assert (clean["failed_trials"], clean["failed_by_error"]) == (0, {})
    assert failing["failed_trials"] == 3
    assert failing["failed_by_error"] == {"DictionaryError": 2, "LinAlgError": 1}


def test_write_csv_round_trips_the_records_in_trial_order(monkeypatch, tmp_path,
                                                         one_process_sweep):
    """records.jsonl reads back as the sweep's TrialRecords, in its order: a failed trial's NaN
    errors and an ambiguous trial's mirror error included."""
    real, calls = harness_mod.run_omp_gcl, iter(range(100))

    def fail_second(*args, **kwargs):
        if next(calls) == 1:
            raise DictionaryError("synthetic estimator failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "run_omp_gcl", fail_second)
    cfg = ExperimentConfig(scenarios=("sw2", "mw"), trials=3, snr_db=(10.0, 25.0), g_theta=256,
                           seed=2)
    result = run_sweep(cfg)
    result.write_csv(tmp_path)
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    loaded = [TrialRecord(**{**d, "flags": tuple(d["flags"])}) for d in map(json.loads, lines)]
    assert [(r.scenario, r.snr_db, r.trial) for r in loaded] == [
        (s, snr, t) for s in cfg.scenarios for snr in cfg.snr_db for t in range(cfg.trials)]
    assert sum(r.failed for r in loaded) == 1 and np.isnan(loaded[1].position_error)
    assert any(r.mirror_error is not None for r in loaded)
    for got, want in zip(loaded, result.records, strict=True):
        np.testing.assert_equal(got.to_dict(), want.to_dict())  # NaN equals NaN here


_SCENARIO_MODES = [(s, m) for s in ("mw", "sw", "sw2", "nf") for m in ("2d", "3d")
                   if (s, m) not in {("nf", "3d"), ("sw2", "3d")}]  # sw2 3-D is rejected


@settings(max_examples=40, deadline=None)
@given(scenario_mode=st.sampled_from(_SCENARIO_MODES), l=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1), snr=st.sampled_from([5.0, 25.0]))
def test_no_in_region_trial_gives_an_unflagged_nan(scenario_mode, l, seed, snr):
    scenario, mode = scenario_mode
    cfg = ExperimentConfig(scenarios=[scenario], mode=mode, l=l, seed=seed, snr_db=[snr],
                           n=8, slots_per_subarray=12, nf_n=16, nf_rings=4, g_theta=64,
                           h_range=(0.0, 1.5))
    rec = run_trial(cfg, scenario, snr, 0, trial=0)
    finite = (bool(rec.positions) and np.all(np.isfinite(rec.positions))
              and np.isfinite(rec.nmse_linear))
    assert finite or rec.flags, rec


def test_3d_polish_starts_inside_the_height_range():
    # the fused height sits at h_pa, above h_range; a search that kept it there
    # reached the mw corner PA at (0, 0, h_pa) and failed the trial
    cfg = ExperimentConfig(scenarios=["mw"], mode="3d", l=2, seed=3780294245, snr_db=[5.0],
                           n=8, slots_per_subarray=12, g_theta=64, h_range=(0.0, 1.5))
    rec = run_trial(cfg, "mw", 5.0, 0, trial=0)
    assert not rec.failed, rec.error_message
    assert all(0.0 <= p[2] <= 1.5 for p in rec.positions)


def test_ambiguous_trials_report_the_mirror_resolved_error(tmp_path):
    cfg = ExperimentConfig(scenarios=("sw2", "mw"), trials=4, snr_db=(25.0,), g_theta=256,
                           seed=2)
    result = run_sweep(cfg)
    y0 = cfg.size_y / 2.0  # the sw guide line
    for rec in result.records:
        if rec.scenario == "mw":
            assert rec.mirror_error is None and "ambiguous" not in rec.flags
            continue
        assert "ambiguous" in rec.flags
        x, y, _ = rec.scene_points[0]
        ex, ey, _ = rec.positions[0]
        assert rec.position_error == pytest.approx(np.hypot(ex - x, ey - y))
        assert rec.mirror_error == pytest.approx(np.hypot(ex - x, ey - (2.0 * y0 - y)))
    result.write_csv(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    sw2 = [r for r in result.records if r.scenario == "sw2"]
    assert meta["mirror_resolved"] == [{
        "scenario": "sw2", "snr_db": 25.0, "ambiguous_trials": 4,
        "median_m": float(np.median([min(r.position_error, r.mirror_error) for r in sw2])),
    }]
    assert result.rmse_rows[0]["median_m"] == float(np.median([r.position_error for r in sw2]))


def test_programming_error_stops_the_sweep(monkeypatch):
    def typo(subarray, *args, **kwargs):
        return subarray.n_elements  # SubarrayGeometry has n_pas

    monkeypatch.setattr(passloc.estimator, "build_dp_dictionary", typo)
    cfg = ExperimentConfig(scenarios=("mw",), trials=2, snr_db=(20.0,), g_theta=64)
    with pytest.raises(AttributeError, match="n_elements"):
        run_sweep(cfg)


def _broken_polish(position, slope, box):
    return np.ones(3) + np.ones(2)  # a programming error that numpy reports as a ValueError


def test_a_value_error_that_is_no_domain_error_stops_the_sweep(monkeypatch, one_process_sweep):
    assert issubclass(DictionaryError, DomainError) and issubclass(SingularGeometryError, DomainError)
    monkeypatch.setattr(passloc.estimator, "polish", _broken_polish)
    cfg = ExperimentConfig(scenarios=("mw",), trials=4, snr_db=(20.0,), g_theta=64)
    with pytest.raises(ValueError, match="broadcast"):
        run_sweep(cfg)
    assert not multiprocessing.active_children()


_PERMUTED_CASES = {
    "mw m=3": dict(),
    "mw m=3 l=1": dict(l=1),
    "mw m=4 3-D": dict(m=4, mode="3d", h_pa=6.0, h_range=(0.0, 3.0)),
}


@pytest.mark.parametrize("case", list(_PERMUTED_CASES))
def test_permuting_the_subarrays_moves_no_fix(case):
    """The same pilots from the same PAs, listed in another subarray order, give the same fixes."""
    cfg = ExperimentConfig(seed=11, trials=10, snr_db=(25.0,), **_PERMUTED_CASES[case])
    est = cfg.estimator_config()
    for trial in range(cfg.trials):
        _, layout, _, _, ms = simulate_trial(cfg, "mw", 25.0, 0, trial)
        order = np.roll(np.arange(layout.m), 1)
        rolled = custom_layout(cfg.region, layout.structure, layout.reference_xy[order],
                               layout.pas_per_subarray, layout.pa_spacing)
        rolled_ms = dataclasses.replace(ms, **{name: tuple(getattr(ms, name)[k] for k in order)
                                               for name in ("y", "w", "slot_ids")})
        a = run_omp_gcl(ms, layout, cfg.radio, est, start_dictionaries(layout, cfg.radio, est))
        b = run_omp_gcl(rolled_ms, rolled, cfg.radio, est,
                        start_dictionaries(rolled, cfg.radio, est))
        assert np.linalg.norm(a.paths[0].position - b.paths[0].position) <= 1e-6, trial
        assert [p.absent for p in a.paths] == [p.absent for p in b.paths], trial
        for p, q in zip(a.paths[1:], b.paths[1:]):
            if not p.absent:
                assert np.linalg.norm(p.position - q.position) <= 0.01, trial


@pytest.mark.parametrize("l", [0, 1], ids=["l=0", "l=1"])
def test_reflecting_the_layout_and_scene_reflects_the_user_fix(l):
    """A custom mw layout and its scene reflected across y = size_y / 2 measure the same pilots
    and give the reflected user fix. No tie rule applies: the anchors lie on three lines."""
    cfg = ExperimentConfig(seed=11, l=l)
    region, radio, est = cfg.region, cfg.radio, cfg.estimator_config()
    flip, shift = np.array([1.0, -1.0, 1.0]), np.array([0.0, cfg.size_y, 0.0])
    refs = np.array([[1.0, 2.0], [24.0, 9.5], [6.0, 23.0]])
    layout, mirrored = (custom_layout(region, Structure.MW, xy, cfg.n, radio.wavelength / 2.0)
                        for xy in (refs, refs * flip[:2] + shift[:2]))
    for trial in range(10):
        scene = sample_scene(region, l, derive_seed(cfg.seed, trial, 0))
        reflected = Scene(scene.user * flip + shift, scene.scatterers * flip + shift)
        paths = synthesize_paths(layout, scene, radio)
        assert np.allclose(synthesize_paths(mirrored, reflected, radio), paths,
                           rtol=0.0, atol=1e-9 * np.abs(paths).max())  # phases k r, r rounded
        ms = measure(layout, make_schedule(layout, 64, rng_seed=trial), paths, radio, 25.0,
                     rng_seed=trial)
        a = run_omp_gcl(ms, layout, radio, est, start_dictionaries(layout, radio, est))
        b = run_omp_gcl(ms, mirrored, radio, est, start_dictionaries(mirrored, radio, est))
        moved = np.linalg.norm(b.paths[0].position - (a.paths[0].position * flip + shift))
        assert moved <= 1e-6, trial
        assert [p.absent for p in a.paths] == [p.absent for p in b.paths], trial


# --- sweeps ---------------------------------------------------------------------


def test_small_sweep_aggregates(tmp_path):
    cfg = ExperimentConfig(
        scenarios=("mw",), trials=3, snr_db=(15.0, 25.0), g_theta=512, seed=5,
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
    def always_fail(cfg, scenario, snr_db, snr_index, trial, atoms=None):
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


# --- pooled sweeps --------------------------------------------------------------

needs_pool = pytest.mark.skipif(harness_mod._blas_thread_setters() is None,
                                reason="no OpenBLAS thread setter here: sweeps run serially")

_POOLED_CASES = {
    "nf l=1": dict(scenarios=["nf"], l=1, nf_n=32, slots_per_subarray=16, nf_rings=4),
    "mw l=1": dict(scenarios=["mw"], l=1),
    "sw2": dict(scenarios=["sw2"]),
    "mw m=4 3-D": dict(scenarios=["mw"], m=4, mode="3d", h_pa=6.0, h_range=(0.0, 3.0)),
}


def _sweep_outputs(monkeypatch, out, workers, **fields) -> tuple:
    """rmse.csv, nmse.csv, meta.json and the records (wall time aside) of a sweep run on
    ``workers`` processes, and the number of live pool workers each progress call saw."""
    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: workers)
    cfg = ExperimentConfig(trials=5, snr_db=(10.0, 25.0), seed=11, g_theta=256, **fields)
    children = []
    result = run_sweep(cfg, progress=lambda rec: children.append(
        len(multiprocessing.active_children())))
    result.write_csv(out)
    files = {name: (out / name).read_bytes() for name in ("rmse.csv", "nmse.csv", "meta.json")}
    records = json.dumps([dict(r.to_dict(), wall_time_s=None) for r in result.records])
    return (files, records), children


@needs_pool
@pytest.mark.parametrize("case", list(_POOLED_CASES))
def test_a_pooled_sweep_equals_the_serial_one(case, monkeypatch, tmp_path):
    serial, children = _sweep_outputs(monkeypatch, tmp_path / "1", 1, **_POOLED_CASES[case])
    assert children == [0] * 10
    for workers in (2, 3):
        pooled, children = _sweep_outputs(monkeypatch, tmp_path / str(workers), workers,
                                          **_POOLED_CASES[case])
        assert children == [workers] * 10
        assert pooled == serial
    assert not multiprocessing.active_children()


@needs_pool
def test_a_pooled_sweep_reports_progress_in_trial_order(monkeypatch):
    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    cfg = ExperimentConfig(scenarios=("mw", "sw"), trials=5, snr_db=(15.0, 25.0), g_theta=64)
    seen = []
    result = run_sweep(cfg, progress=lambda rec: seen.append((rec.scenario, rec.snr_db, rec.trial)))
    assert seen == [(s, snr, t) for s in cfg.scenarios for snr in cfg.snr_db for t in range(5)]
    assert seen == [(r.scenario, r.snr_db, r.trial) for r in result.records]
    assert not multiprocessing.active_children()


@needs_pool
def test_a_worker_s_programming_error_reaches_the_caller_and_stops_the_pool(monkeypatch):
    def typo(layout, scene, radio):
        return scene.user_position  # Scene has user

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "synthesize_paths", typo)
    cfg = ExperimentConfig(scenarios=("mw",), trials=4, snr_db=(20.0,), g_theta=64)
    with pytest.raises(AttributeError, match="user_position") as raised:
        run_sweep(cfg)
    assert type(raised.value.__cause__).__name__ == "RemoteTraceback"  # raised in a worker
    assert not multiprocessing.active_children()


@needs_pool
def test_a_value_error_that_is_no_domain_error_stops_the_pooled_sweep(monkeypatch):
    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(passloc.estimator, "polish", _broken_polish)
    cfg = ExperimentConfig(scenarios=("mw",), trials=4, snr_db=(20.0,), g_theta=64)
    with pytest.raises(ValueError, match="broadcast") as raised:
        run_sweep(cfg)
    assert type(raised.value.__cause__).__name__ == "RemoteTraceback"  # raised in a worker
    assert not multiprocessing.active_children()


@needs_pool
def test_a_pooled_sweep_aborts_when_most_trials_fail_and_stops_the_pool(monkeypatch):
    def singular(cfg, scenario, ms, layout, atoms):
        raise np.linalg.LinAlgError("synthetic")

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "estimate", singular)
    cfg = ExperimentConfig(scenarios=("mw",), trials=5, snr_db=(20.0, 25.0), g_theta=64)
    live = []
    with pytest.raises(RuntimeError, match="at 20.0 dB: 5 of 5 trials failed"):
        run_sweep(cfg, progress=lambda rec: live.append(len(multiprocessing.active_children())))
    assert live == [2] * 5
    assert not multiprocessing.active_children()


def test_a_sweep_with_run_trial_rebound_runs_its_trials_in_this_process(monkeypatch):
    real = harness_mod.run_trial
    calls = []

    def counted(*args):
        calls.append(os.getpid())
        return real(*args)

    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "run_trial", counted)
    cfg = ExperimentConfig(scenarios=("mw",), trials=3, snr_db=(25.0,), g_theta=64)
    live = []
    run_sweep(cfg, progress=lambda rec: live.append(len(multiprocessing.active_children())))
    assert calls == [os.getpid()] * 3 and live == [0] * 3


def test_a_sweep_runs_serially_when_the_blas_threads_cannot_be_capped(monkeypatch):
    monkeypatch.setattr(harness_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness_mod, "_blas_thread_setters", lambda: None)
    cfg = ExperimentConfig(scenarios=("mw",), trials=3, snr_db=(25.0,), g_theta=64)
    live = []
    run_sweep(cfg, progress=lambda rec: live.append(len(multiprocessing.active_children())))
    assert live == [0] * 3


def test_a_one_trial_sweep_runs_without_the_pool_module():
    code = ("import sys\n"
            "from passloc.harness import ExperimentConfig, run_sweep\n"
            "run_sweep(ExperimentConfig(trials=1, snr_db=(25.0,), g_theta=64))\n"
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n")
    env = dict(os.environ)
    src = str(Path(harness_mod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_rmse_improves_from_low_to_high_snr():
    cfg = ExperimentConfig(
        scenarios=("mw",), m=4, trials=25, snr_db=(10.0, 25.0), seed=3, g_theta=1024,
    )
    result = run_sweep(cfg)
    by_snr = {row["snr_db"]: row for row in result.rmse_rows}
    assert by_snr[25.0]["median_m"] < by_snr[10.0]["median_m"]
