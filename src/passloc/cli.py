"""Command-line front end: simulate, estimate, crlb, sweep.

``simulate`` saves one trial with its experiment config narrowed to the
simulated scenario and SNR (harness.save_run); ``estimate`` reads it back
(harness.load_run) and dispatches through harness.estimate on the saved
config, so it reproduces run_trial's estimate of the same trial.

Exit codes: 0 on success, 2 for configuration problems (bad flags,
missing or invalid config files, saved runs of another schema or with
corrupt pilots), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .crlb import crlb_heatmap
from .harness import (ExperimentConfig, estimate, load_run, position_error, run_sweep, save_run,
                      scenario_atoms, scenario_layout)

CRLB_SCHEMA_VERSION = 1

# (command-line flag, ExperimentConfig field) for the config overrides
_CONFIG_FLAGS = (("seed", "seed"), ("scenario", "scenarios"), ("snr", "snr_db"),
                 ("trials", "trials"), ("mode", "mode"), ("m", "m"))


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    overrides = {field: getattr(args, flag) for flag, field in _CONFIG_FLAGS
                 if getattr(args, flag, None) is not None}
    return dataclasses.replace(cfg, **overrides)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    ms = save_run(args.out, cfg, args.trial)
    print(f"wrote {Path(args.out) / 'measurements.csv'} ({sum(len(y) for y in ms.y)} "
          f"observations, scenario={cfg.scenarios[0]}, snr={cfg.snr_db[0]} dB)")
    return 0


def _cmd_estimate(args) -> int:
    run = load_run(args.data)
    cfg, scene = run.config, run.scene
    scenario = cfg.scenarios[0]
    result = estimate(cfg, scenario, run.measurements, run.layout, scenario_atoms(cfg, scenario))
    report = {
        "true_points": scene.points.tolist(),
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
        "user_error_m": position_error(scene.user, result.paths[0].position, cfg.mode),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "estimate.json").write_text(json.dumps(report, indent=2))
    lines = ["path,x,y,z,absent"]
    for p in result.paths:
        px, py, pz = (float(v) for v in p.position)
        lines.append(f"{p.path},{px!r},{py!r},{pz!r},{int(p.absent)}")
    (out / "positions.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'estimate.json'} (user error {report['user_error_m']:.4g} m)")
    return 0


def _cmd_crlb(args) -> int:
    if not args.sigma > 0.0:
        raise ValueError(f"--sigma must be positive, got {args.sigma}")
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

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--scenario", choices=["sw", "mw", "nf", "sw2"])
        p.add_argument("--snr", type=float, nargs="+", help="SNR grid override (dB)")
        p.add_argument("--trials", type=int)
        p.add_argument("--mode", choices=["2d", "3d"])
        p.add_argument("--out", required=True, help="output file or directory")

    p = sub.add_parser("simulate", help="synthesize one trial's pilot measurements")
    common(p)
    p.add_argument("--trial", type=int, default=0, help="trial index for seed derivation")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="run a saved run's estimator on its measurements")
    p.add_argument("--data", required=True, help="directory written by simulate")
    p.add_argument("--out", required=True)
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
        return args.func(args)
    except (FileNotFoundError, KeyError, ValueError) as exc:  # ValueError covers bad JSON
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
