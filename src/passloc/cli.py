"""Command-line front end: simulate, estimate, crlb, sweep.

Exit codes: 0 on success, 2 for configuration problems (bad flags,
missing or invalid config files), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .channel import load_measurement_set, save_measurement_set
from .crlb import crlb_heatmap
from .estimator import EstimatorConfig, run_omp_gcl, run_polar_baseline
from .harness import ExperimentConfig, position_error, run_sweep, scenario_layout, simulate_trial

CRLB_SCHEMA_VERSION = 1

# (command-line flag, ExperimentConfig field) for the config overrides
_CONFIG_FLAGS = (("seed", "seed"), ("scenario", "scenarios"), ("snr", "snr_db"),
                 ("trials", "trials"), ("mode", "mode"), ("m", "m"))
# (command-line flag, EstimatorConfig field) for `estimate`
_ESTIMATOR_FLAGS = (("mode", "mode"), ("g_theta", "g_theta"), ("iters", "max_outer_iters"),
                    ("height", "fixed_height"))


def _overrides(args, flags) -> dict:
    """Config fields for the flags given on the command line."""
    return {field: getattr(args, flag) for flag, field in flags
            if getattr(args, flag, None) is not None}


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    return dataclasses.replace(cfg, **_overrides(args, _CONFIG_FLAGS))


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    scenario = cfg.scenarios[0]
    snr = cfg.snr_db[0]
    scene, layout, schedule, _, ms = simulate_trial(cfg, scenario, snr, 0, args.trial)
    save_measurement_set(args.out, ms, cfg.region, layout, schedule, cfg.radio, scene=scene)
    print(f"wrote {Path(args.out) / 'measurements.csv'} "
          f"({sum(len(y) for y in ms.y)} observations, scenario={scenario}, snr={snr} dB)")
    return 0


def _cmd_estimate(args) -> int:
    data = load_measurement_set(args.data)
    region, layout, radio = data["region"], data["layout"], data["radio"]
    scene = data["scene"]
    num_paths = args.paths if args.paths else (scene.l + 1 if scene is not None else 1)
    est_cfg = EstimatorConfig(region=region, num_paths=num_paths,
                              **_overrides(args, _ESTIMATOR_FLAGS))
    if layout.m == 1 and args.baseline == "polar":
        result = run_polar_baseline(data["measurements"], layout, radio, est_cfg)
    else:
        result = run_omp_gcl(data["measurements"], layout, radio, est_cfg)
    report = {
        "true_points": None if scene is None else scene.points.tolist(),
        "positions": [p.position.tolist() for p in result.paths],
        "flags": list(result.flags),
        "paths": [
            {
                "path": p.path,
                "position": p.position.tolist(),
                "varphis": p.varphis.tolist(),
                "signs": None if p.signs is None else p.signs.tolist(),
                "anchor_distances": p.distances.tolist(),
                "coefficients": [[c.real, c.imag] for c in p.coefficients],
                "scatter_user_distance": p.scatter_user_distance,
                "absent": p.absent,
                "trace": p.trace,
            }
            for p in result.paths
        ],
    }
    if scene is not None:
        report["user_error_m"] = position_error(scene.user, result.paths[0].position, est_cfg.mode)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "estimate.json").write_text(json.dumps(report, indent=2))
    lines = ["path,x,y,z,absent"]
    for p in result.paths:
        px, py, pz = (float(v) for v in p.position)
        lines.append(f"{p.path},{px!r},{py!r},{pz!r},{int(p.absent)}")
    (out / "positions.csv").write_text("\n".join(lines) + "\n")
    msg = f"wrote {out / 'estimate.json'}"
    if "user_error_m" in report:
        msg += f" (user error {report['user_error_m']:.4g} m)"
    print(msg)
    return 0


def _cmd_crlb(args) -> int:
    cfg = _load_config(args)
    layout, _ = scenario_layout(cfg, cfg.scenarios[0])
    rows = crlb_heatmap(cfg.region, layout.reference_xy, args.sigma**2,
                        grid_n=args.grid, mode=args.bound)
    out = Path(args.out)
    if out.suffix != ".csv":
        out.mkdir(parents=True, exist_ok=True)
        out = out / "crlb.csv"
    lines = [f"# passloc crlb v{CRLB_SCHEMA_VERSION}", "x,y,trace_crlb,lambda_min"]
    for x, y, tr, lam in rows:
        lines.append(f"{float(x)!r},{float(y)!r},{float(tr)!r},{float(lam)!r}")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(rows)} grid points)")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    result = run_sweep(cfg)
    result.write_csv(args.out)
    print(f"wrote {Path(args.out) / 'rmse.csv'} and nmse.csv "
          f"({len(cfg.scenarios)} scenarios x {len(cfg.snr_db)} SNRs x {cfg.trials} trials)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passloc",
        description="Pinching-antenna pilot simulation, localization, and bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--scenario", choices=["sw", "mw", "nf", "sw2"])
        p.add_argument("--snr", type=float, nargs="+", help="SNR grid override (dB)")
        p.add_argument("--trials", type=int)
        p.add_argument("--mode", choices=["2d", "3d"])
        if needs_out:
            p.add_argument("--out", required=True, help="output file or directory")

    p = sub.add_parser("simulate", help="synthesize one trial's pilot measurements")
    common(p)
    p.add_argument("--trial", type=int, default=0, help="trial index for seed derivation")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="run localization on stored measurements")
    p.add_argument("--data", required=True, help="directory written by simulate")
    p.add_argument("--out", required=True)
    # unset flags keep the EstimatorConfig defaults
    p.add_argument("--mode", choices=["2d", "3d"])
    p.add_argument("--paths", type=int, help="number of paths to extract")
    p.add_argument("--g-theta", type=int)
    p.add_argument("--iters", type=int)
    p.add_argument("--height", type=float, help="known target height (2d mode)")
    p.add_argument("--baseline", choices=["auto", "polar"], default="auto",
                   help="force the polar baseline on single-subarray data")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("crlb", help="bearing-fusion bound heatmap over the region")
    common(p)
    p.add_argument("--m", type=int, help="subarray count override")
    p.add_argument("--sigma", type=float, default=0.01, help="bearing noise std")
    p.add_argument("--grid", type=int, default=60, help="heatmap grid points per axis")
    p.add_argument("--bound", choices=["exact", "paper"], default="exact")
    p.set_defaults(func=_cmd_crlb)

    p = sub.add_parser("sweep", help="full RMSE/NMSE benchmark sweep")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code) if exc.code is not None else 0

    try:
        cfg_path = getattr(args, "config", None)
        if cfg_path and not Path(cfg_path).exists():
            raise FileNotFoundError(f"config file not found: {cfg_path}")
        data_path = getattr(args, "data", None)
        if data_path and not Path(data_path).exists():
            raise FileNotFoundError(f"data directory not found: {data_path}")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        return args.func(args)
    except (FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
