"""Command-line workflows: simulate, estimate, crlb, sweep, and exit codes."""

import json

import numpy as np
import pytest

from passloc.channel import load_measurement_set
from passloc.cli import cli_main
from passloc.harness import ExperimentConfig, run_trial
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
    loaded = load_measurement_set(data)
    assert loaded["scene"] is not None
    assert loaded["measurements"].m == 3

    out = tmp_path / "est"
    code = cli_main(["estimate", "--data", str(data), "--out", str(out), "--g-theta", "512"])
    assert code == 0
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
    written = load_measurement_set(data)["measurements"]

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


def test_estimate_reports_the_user_error_of_run_trial(tmp_path):
    # trial 8 is one where hypot and norm of the 2-D error differ in the last bit
    cfg = _write_cfg(tmp_path)
    data, out = tmp_path / "data", tmp_path / "est"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(data), "--trial", "8"]) == 0
    assert cli_main(["estimate", "--data", str(data), "--out", str(out), "--g-theta", "512"]) == 0
    report = json.loads((out / "estimate.json").read_text())
    rec = run_trial(ExperimentConfig.from_json(cfg), "mw", 25.0, 0, trial=8)
    err = np.asarray(rec.positions[0]) - np.asarray(rec.scene_points[0])
    assert float(np.linalg.norm(err[:2])) != rec.position_error
    assert report["user_error_m"] == rec.position_error


def test_estimate_polar_baseline_on_single_guide(tmp_path):
    cfg = _write_cfg(tmp_path, scenarios=["nf"], nf_rings=8)
    data = tmp_path / "nf_data"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    out = tmp_path / "nf_est"
    code = cli_main(
        ["estimate", "--data", str(data), "--out", str(out), "--baseline", "polar",
         "--g-theta", "256"]
    )
    assert code == 0
    report = json.loads((out / "estimate.json").read_text())
    assert "ambiguous" in report["flags"]


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


def test_sweep_command_writes_tables(tmp_path):
    cfg = _write_cfg(tmp_path, trials=2, snr_db=[20.0])
    out = tmp_path / "sweep"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rmse_lines = (out / "rmse.csv").read_text().splitlines()
    assert rmse_lines[1] == "scenario,snr_db,rmse_m,median_m,flag_rate,total_slots"
    assert len(rmse_lines) == 3
    assert (out / "nmse.csv").exists()
    assert json.loads((out / "meta.json").read_text())["config"]["trials"] == 2


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
    # a misspelt key, and a key that estimator settings once had
    for key, value in (("snr_grid", [10.0]), ("coeff_floor", 0.001)):
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
    ("iters", 0), ("l", -1),
])
def test_wrong_config_value_type_exits_2(tmp_path, capsys, field, value):
    cfg = _write_cfg(tmp_path, **{field: value})
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"config field '{field}'" in err
    assert not (tmp_path / "o").exists()


def test_usage_errors_exit_2(capsys):
    assert cli_main(["simulate", "--nonsense"]) == 2
    assert cli_main([]) == 2
    assert cli_main(["estimate", "--data", "/definitely/missing", "--out", "/tmp/x"]) == 2


def test_scenario_and_snr_overrides(tmp_path):
    data = tmp_path / "sw2"
    code = cli_main(
        ["simulate", "--scenario", "sw2", "--snr", "30", "--out", str(data), "--seed", "9"]
    )
    assert code == 0
    meta = json.loads((data / "meta.json").read_text())
    assert meta["layout"]["structure"] == "sw"
    assert len(meta["layout"]["reference_xy"]) == 2
    assert meta["noise"]["snr_db"] == 30.0
