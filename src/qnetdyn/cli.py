"""Command-line entry point for configured runs and parameter sweeps."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import load_config, load_preset, parse_radius_list, preset_names
from .experiment import run_experiment, run_sweep


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qnetdyn",
        description="Deterministic quantum-network dynamics runs from config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one configured experiment")
    run_p.add_argument("config", nargs="?", help="path to a config file")
    run_p.add_argument("--preset", help="name of a bundled run description")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument(
        "--radius-list",
        help="comma-separated ascending radii overriding analyses.recurrence_radii",
    )

    sweep_p = sub.add_parser("sweep", help="repeat a base config across r values")
    sweep_p.add_argument("config", help="path to the base config file")
    sweep_p.add_argument("--r-from", type=float, required=True)
    sweep_p.add_argument("--r-to", type=float, required=True)
    sweep_p.add_argument("--r-steps", type=int, required=True)
    sweep_p.add_argument("--workers", type=int, default=1)
    sweep_p.add_argument("--out", default="out")
    sweep_p.add_argument(
        "--radius-list",
        help="radii for the per-row recurrence probability columns "
        "(default: the base config's recurrence_radii, else 0.1)",
    )

    sub.add_parser("presets", help="list bundled run descriptions")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            for name in preset_names():
                print(name)
            return 0
        if args.command == "run":
            if (args.config is None) == (args.preset is None):
                parser.error("run needs exactly one of <config> or --preset")
            cfg = load_preset(args.preset) if args.preset else load_config(args.config)
            if args.radius_list is not None:
                radii = parse_radius_list(args.radius_list)
                cfg = replace(cfg, recurrence_radii=radii)
            manifest = run_experiment(cfg, out_dir=args.out)
            print(f"wrote {manifest.directory / 'manifest.txt'}")
            return 0
        # sweep
        cfg = load_config(args.config)
        if args.r_steps < 1:
            parser.error("--r-steps must be >= 1")
        try:
            cfg.with_r(args.r_from), cfg.with_r(args.r_to)
        except ValueError as exc:
            parser.error(f"--r-from/--r-to: {exc}")
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        r_values = np.linspace(args.r_from, args.r_to, args.r_steps)
        radii = None
        if args.radius_list is not None:
            radii = parse_radius_list(args.radius_list)
        path = run_sweep(cfg, r_values, args.out, workers=args.workers, radii=radii)
        print(f"wrote {path}")
        return 0
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
