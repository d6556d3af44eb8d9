"""Command-line workflows: simulate, estimate, crlb, sweep, and exit codes."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passloc.cli import cli_main
from passloc.harness import ExperimentConfig, load_run, run_trial, simulate_trial
import passloc.harness as harness_mod


def _write_cfg(tmp_path, **overrides):
    cfg = {
        "scenarios": ["mw"],
        "trials": 2,
        "snr_db": [25.0],
        "g_theta": 512,
        "seed": 3,
    }
    cfg.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_simulate_then_estimate(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    data = tmp_path / "data"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(data), "--trial", "1"]) == 0
    assert (data / "measurements.csv").exists()
    assert (data / "meta.json").exists()
    assert load_run(data).measurements.m == 3

    out = tmp_path / "est"
    assert cli_main(["estimate", "--data", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "estimate.json").read_text())
    assert report["user_error_m"] < 0.5  # 25 dB single trial, interior scene
    lines = (out / "positions.csv").read_text().strip().splitlines()
    assert lines[0] == "path,x,y,z,absent"
    assert len(lines) == 2
    x = float(lines[1].split(",")[1])
    assert 0.0 <= x <= 30.0
    msg = capsys.readouterr().out
    assert "user error" in msg


def test_simulate_writes_the_measurements_of_run_trial(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path)
    data = tmp_path / "data"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(data), "--trial", "1"]) == 0
    written = load_run(data).measurements

    seen = []

    def capture(ms, *args, **kwargs):
        seen.append(ms)
        raise RuntimeError("measurements captured")

    monkeypatch.setattr(harness_mod, "run_omp_gcl", capture)
    with pytest.raises(RuntimeError, match="measurements captured"):
        run_trial(ExperimentConfig.from_json(cfg), "mw", 25.0, 0, trial=1)
    (used,) = seen
    assert written.noise_variance == used.noise_variance
    for name in ("y", "w", "slot_ids"):
        for a, b in zip(getattr(written, name), getattr(used, name), strict=True):
            np.testing.assert_array_equal(a, b)


def _estimate_and_run_trial(tmp_path, trial, **overrides):
    """The CLI's estimate.json and run_trial's record for one simulated trial."""
    cfg = _write_cfg(tmp_path, **overrides)
    data, out = tmp_path / "data", tmp_path / "est"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(data),
                     "--trial", str(trial)]) == 0
    assert cli_main(["estimate", "--data", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "estimate.json").read_text())
    exp = ExperimentConfig.from_json(cfg)
    rec = run_trial(exp, exp.scenarios[0], 25.0, 0, trial=trial)
    assert not rec.failed
    return report, rec


def test_estimate_reports_the_user_error_of_run_trial(tmp_path):
    # trial 8 is one where hypot and norm of the 2-D error differ in the last bit
    report, rec = _estimate_and_run_trial(tmp_path, 8)
    err = np.asarray(rec.positions[0]) - np.asarray(rec.scene_points[0])
    assert float(np.linalg.norm(err[:2])) != rec.position_error
    assert report["positions"] == rec.positions
    assert report["user_error_m"] == rec.position_error


@pytest.mark.parametrize("overrides", [
    pytest.param({"m": 4, "mode": "3d", "h_pa": 6.0, "h_range": [0.0, 6.0]}, id="mw-3d"),
    pytest.param({"scenarios": ["nf"], "nf_rings": 8}, id="nf"),
])
def test_estimate_matches_run_trial_in_every_mode(tmp_path, overrides):
    report, rec = _estimate_and_run_trial(tmp_path, 0, **overrides)
    assert report["positions"] == rec.positions
    assert report["user_error_m"] == rec.position_error


def test_estimate_polar_baseline_on_single_guide(tmp_path):
    cfg = _write_cfg(tmp_path, scenarios=["nf"], nf_rings=8)
    data = tmp_path / "nf_data"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    out = tmp_path / "nf_est"
    assert cli_main(["estimate", "--data", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "estimate.json").read_text())
    assert "ambiguous" in report["flags"]


def test_estimate_rejects_runs_without_their_experiment(tmp_path, capsys):
    # v1 runs stored no experiment; v2 runs stored the deployment a second time
    cfg = _write_cfg(tmp_path)
    data = tmp_path / "data"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    meta = json.loads((data / "meta.json").read_text())
    capsys.readouterr()
    for version in (1, 2):
        (data / "meta.json").write_text(json.dumps(dict(meta, version=version)))
        out = tmp_path / f"est_v{version}"
        assert cli_main(["estimate", "--data", str(data), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"schema v{version}" in err and "re-run `passloc simulate`" in err
        assert not out.exists()


def _truncate_rows(meta, rows):
    meta["activation_bits"]["0"] = meta["activation_bits"]["0"][:10]


def _overwrite_row(meta, rows):
    meta["activation_bits"]["1"][5] = "2" * len(meta["activation_bits"]["1"][5])


def _shorten_row(meta, rows):
    meta["activation_bits"]["2"][0] = meta["activation_bits"]["2"][0][:-1]


def _bits_of_a_fourth_subarray(meta, rows):
    meta["activation_bits"]["3"] = meta["activation_bits"]["2"]


def _csv_row_of_a_fourth_subarray(meta, rows):
    rows.append("3" + rows[-1][1:])


@pytest.mark.parametrize("corrupt, message", [
    (_truncate_rows, "subarray 0 has 10 activation rows for 64 observations"),
    (_overwrite_row, "subarray 1 has activation row '2222"),
    (_shorten_row, "subarray 2 has activation row"),
    (_bits_of_a_fourth_subarray, "subarray 3 lies outside the 3-subarray layout"),
    (_csv_row_of_a_fourth_subarray, "subarray 3 lies outside the 3-subarray layout"),
], ids=["truncated-rows", "non-binary-row", "short-row", "bits-index", "csv-index"])
def test_estimate_rejects_corrupt_pilots(tmp_path, capsys, corrupt, message):
    # truncated rows once gave W all-zero rows, and a row of 2s a doubled W row, with exit 0
    cfg = _write_cfg(tmp_path)
    data, out = tmp_path / "data", tmp_path / "est"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    meta = json.loads((data / "meta.json").read_text())
    rows = (data / "measurements.csv").read_text().splitlines()
    corrupt(meta, rows)
    (data / "meta.json").write_text(json.dumps(meta))
    (data / "measurements.csv").write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert cli_main(["estimate", "--data", str(data), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@settings(max_examples=30, deadline=None)
@given(scenario=st.sampled_from(["mw", "sw", "sw2", "nf"]), mode=st.sampled_from(["2d", "3d"]),
       l=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), trial=st.integers(0, 1000),
       snr=st.sampled_from([5.0, 25.0]))
def test_saved_run_round_trips_bit_for_bit(scenario, mode, l, seed, trial, snr):
    cfg = ExperimentConfig(scenarios=[scenario, "mw"], snr_db=[snr, 17.5], mode=mode, l=l,
                           seed=seed, n=8, slots_per_subarray=12, nf_n=16, h_range=(0.0, 1.5))
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, data = Path(tmp) / "cfg.json", Path(tmp) / "data"
        cfg.to_json(cfg_path)
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(data),
                         "--trial", str(trial)]) == 0
        loaded = load_run(data)
    scene, layout, _, _, ms = simulate_trial(cfg, scenario, snr, 0, trial)

    def same_bits(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    got = loaded.measurements
    for name in ("y", "w", "slot_ids"):
        for a, b in zip(getattr(got, name), getattr(ms, name), strict=True):
            assert same_bits(a, b), name
    for name in ("noise_variance", "snr_db", "mean_signal_power"):
        assert same_bits(getattr(got, name), getattr(ms, name)), name
    assert got.snr_db == loaded.config.snr_db[0]
    assert same_bits(loaded.scene.points, scene.points)
    assert same_bits(loaded.layout.pa_positions, layout.pa_positions)
    assert loaded.config == dataclasses.replace(cfg, scenarios=[scenario], snr_db=[snr])
    assert loaded.trial == trial


def test_crlb_heatmap_output(tmp_path):
    out = tmp_path / "crlb.csv"
    code = cli_main(["crlb", "--m", "4", "--grid", "6", "--sigma", "0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# passloc crlb v")
    assert lines[1] == "x,y,trace_crlb,lambda_min"
    assert len(lines) == 2 + 36
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert np.all(vals[:, 2] > 0)


@pytest.mark.parametrize("flags, message", [
    (["--sigma", "0"], "--sigma must be positive"),
    (["--sigma", "-0.01"], "--sigma must be positive"),
    (["--grid", "0"], "heatmap grid needs at least one point"),
], ids=["sigma-zero", "sigma-negative", "grid-zero"])
def test_crlb_rejects_degenerate_bounds(tmp_path, capsys, flags, message):
    # --sigma 0 once wrote a table of nan traces and --grid 0 an empty one, both with exit 0
    out = tmp_path / "crlb.csv"
    assert cli_main(["crlb", "--m", "4", "--grid", "6", *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_command_writes_tables(tmp_path):
    cfg = _write_cfg(tmp_path, trials=2, snr_db=[20.0])
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rmse_lines = (out / "rmse.csv").read_text().splitlines()
    assert rmse_lines[1] == "scenario,snr_db,rmse_m,median_m,flag_rate,total_slots"
    assert len(rmse_lines) == 3
    assert (out / "nmse.csv").exists()
    assert json.loads((out / "meta.json").read_text())["config"]["trials"] == 2


def test_sweep_meta_counts_failed_trials(tmp_path):
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(_write_cfg(tmp_path)), "--trials", "2",
                     "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert type(meta["failed_trials"]) is int and 0 <= meta["failed_trials"] <= 2
    assert "keep_records" not in meta["config"]


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = cli_main(["sweep", "--config", str(missing), "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli_main(["sweep", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a misspelt key, and keys that estimator settings and sweeps once had
    for key, value in (("snr_grid", [10.0]), ("coeff_floor", 0.001), ("keep_records", True)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err


def test_empty_sweep_exits_2(tmp_path, capsys):
    for override in ({"snr_db": []}, {"scenarios": []}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert cli_main(["sweep", "--trials", "0", "--out", str(tmp_path / "o")]) == 2
    assert "need at least one trial" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_one_point_angle_grid_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, g_theta=1)
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "g_theta" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [
    ("trials", "3"), ("m", 3.5), ("seed", True), ("iters", None), ("slots_per_subarray", "64"),
    ("frequency", "28e9"), ("h_pa", [2.0]), ("snr_db", ["25"]), ("h_range", "0,6"),
    ("iters", 0), ("l", -1), ("m", 0), ("n", 0), ("slots_per_subarray", 0), ("nf_n", 0),
    ("nf_rings", 0), ("density", 0), ("density", 1.5), ("mode", "4d"),
])
def test_wrong_config_value_type_exits_2(tmp_path, capsys, field, value):
    cfg = _write_cfg(tmp_path, **{field: value})
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"config field '{field}'" in err
    assert not (tmp_path / "o").exists()


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli_main(["simulate", "--nonsense"]) == 2
    assert cli_main([]) == 2
    assert cli_main(["estimate", "--data", "/definitely/missing", "--out", "/tmp/x"]) == 2
    # estimator settings come from the saved run, so estimate takes none
    for flag in (["--mode", "3d"], ["--paths", "1"], ["--g-theta", "512"], ["--iters", "2"],
                 ["--height", "0"], ["--baseline", "polar"]):
        assert cli_main(["estimate", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                         *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_scenario_and_snr_overrides(tmp_path):
    data = tmp_path / "sw2"
    code = cli_main(
        ["simulate", "--scenario", "sw2", "--snr", "30", "--out", str(data), "--seed", "9"]
    )
    assert code == 0
    meta = json.loads((data / "meta.json").read_text())
    # the deployment and the SNR are stored once, in the experiment config
    assert set(meta) == {"version", "experiment", "activation_bits", "noise", "scene"}
    assert set(meta["noise"]) == {"noise_variance", "mean_signal_power"}
    assert meta["experiment"]["config"]["scenarios"] == ["sw2"]
    assert meta["experiment"]["config"]["snr_db"] == [30.0]
    run = load_run(data)
    assert run.layout.structure.value == "sw" and run.layout.m == 2
    assert run.measurements.snr_db == 30.0
