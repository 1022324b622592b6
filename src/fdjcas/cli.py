"""Command-line front end: run a benchmark sweep, print the angle bound for
a scene, or run a single subspace estimate."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .crb import aoa_crb, crb_within_threshold
from .experiments import (
    CONFIG_ENV_VAR,
    SCHEMES,
    ConfigError,
    ExperimentConfig,
    build_cell,
    emit_outputs,
    estimate_angles,
    load_config,
    run_scheme,
)
from .optimizer import CrbInfeasibleError, jcas_optimize
from .steering import build_sensing_context

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _base_config(args) -> ExperimentConfig:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    config = load_config(path) if path else ExperimentConfig()
    overrides = {}
    if getattr(args, "scheme", None):
        overrides["scheme"] = args.scheme
    if getattr(args, "snr", None):
        try:
            overrides["snr_grid_db"] = tuple(float(s) for s in args.snr.split(","))
        except ValueError as err:
            raise ConfigError(f"--snr must be comma-separated numbers: {err}") from err
    if getattr(args, "seeds", None) is not None:
        overrides["seeds"] = args.seeds
    if getattr(args, "trials", None) is not None:
        overrides["mse_trials"] = args.trials
    if getattr(args, "out", None):
        overrides["output_dir"] = args.out
    if overrides:
        config = ExperimentConfig.from_dict({**config.to_dict(), **overrides})
    return config


def _cell(args, config: ExperimentConfig):
    """SNR, scene, channels, coefficients and solver options of the cell
    that ``--seed`` and ``--snr-db`` name."""
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    snr = config.snr_grid_db[0] if args.snr_db is None else args.snr_db
    return (snr, *build_cell(config, args.seed, snr))


def _cmd_run(args) -> int:
    config = _base_config(args)
    rows = run_scheme(config)
    paths = emit_outputs(rows, config.output_dir)
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_crb(args) -> int:
    snr, scene, channels, coeffs, jcas = _cell(args, _base_config(args))
    if not args.optimize:
        # zero outer iterations leave the design at its initial point
        jcas = dataclasses.replace(jcas, max_outer=0)
    result = jcas_optimize(scene, channels, jcas, coeffs=coeffs)
    ctx = build_sensing_context(scene, result.ris_phase, coeffs, channels.noise_radar)
    value = aoa_crb(result.precoder, ctx.path_response_deriv, ctx.noise_cov)
    print(f"target_angle_rad={scene.target_angle!r}")
    print(f"snr_db={snr!r}")
    print(f"crb_rad2={value!r}")
    # communication-only designs ignore the bound: report it as inf
    threshold = jcas.enforced_crb_threshold
    print(f"threshold_rad2={threshold!r}")
    print(f"satisfied={crb_within_threshold(value, threshold)}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    config = _base_config(args)
    # MUSIC needs a noise subspace, whatever the scheme and mse_trials
    if config.n_streams >= config.n_bs_rx:
        raise ConfigError(
            f"n_streams {config.n_streams} must be below n_bs_rx {config.n_bs_rx} for estimate"
        )
    _, scene, channels, coeffs, jcas = _cell(args, config)
    result = jcas_optimize(scene, channels, jcas, coeffs=coeffs)
    (estimate,) = estimate_angles(config, scene, channels, coeffs, result, [config.root_seed])
    error = estimate - scene.target_angle
    print(f"true_angle_rad={scene.target_angle!r}")
    print(f"estimate_rad={estimate!r}")
    print(f"error_rad={error!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdjcas",
        description="Full-duplex joint communications and sensing studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scheme over the SNR grid and emit CSVs")
    run.add_argument("config", nargs="?", help=f"YAML config path (default: ${CONFIG_ENV_VAR})")
    run.add_argument("--scheme", choices=SCHEMES)
    run.add_argument("--snr", help="comma-separated SNR grid in dB, e.g. 0,5,10")
    run.add_argument("--seeds", type=int)
    run.add_argument("--trials", type=int, help="Monte-Carlo trials for the MSE column")
    run.add_argument("--out", help="output directory")
    run.set_defaults(func=_cmd_run)

    crb = sub.add_parser("crb", help="print the angle bound for a configured scene")
    estimate = sub.add_parser("estimate", help="single optimized MUSIC estimate")
    for cell, func in ((crb, _cmd_crb), (estimate, _cmd_estimate)):
        cell.add_argument("config", nargs="?")
        cell.add_argument("--snr-db", type=float, default=None)
        cell.add_argument("--seed", type=int, default=0)
        cell.set_defaults(func=func)
    crb.add_argument("--optimize", action="store_true", help="optimize before evaluating")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (CrbInfeasibleError, OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
