"""Command-line entry point for simulations and convergence experiments.

Configuration is a flat JSON object; every key can also be set by a flag of
the same name.  Precedence: built-in defaults < --preset < --config file <
explicit flags.  Named presets reproduce the reference experiments; run e.g.

    spherewave convergence --preset fig1 --output out/fig1
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from . import harmonics
from .harmonics import synthesize
from .harness import (EQUATIONS, ERROR_KINDS, FUNCTIONALS, INITIAL_DATA_MODES, WEAK_METHODS,
                      ExperimentConfig, _sample_rngs, analytic_weak_error_experiment,
                      initial_data, pathwise_error_experiment, strong_error_experiment,
                      theoretical_rates, weak_error_experiment)
from .io import (ensure_dir, write_coefficient_csv, write_error_table_csv,
                 write_error_table_json, write_grid_field_csv, write_wave_trajectory_csv)
from .modes import CoefficientField, mode_count
from .noise import sample_isotropic_grf
from .wave import run_path

PRESETS: dict[str, dict] = {
    # strong mean-square errors, noise-dominated
    "fig1": {"equation": "wave", "alpha": 3.0, "kappas": [2, 4, 8, 16, 32],
             "kappa_ref": 64, "samples": 100, "seed": 1001},
    "fig2": {"equation": "wave", "alpha": 5.0, "kappas": [2, 4, 8, 16, 32],
             "kappa_ref": 64, "samples": 100, "seed": 1002},
    # rough noise: position converges, velocity does not
    "fig3": {"equation": "wave", "alpha": 1.0, "kappas": [2, 4, 8, 16, 32],
             "kappa_ref": 256, "samples": 100, "seed": 1003},
    # error dominated by the regularity of a random initial position
    "fig4": {"equation": "wave", "alpha": 10.0, "beta": 2.0,
             "initial_data": "random-sobolev", "kappas": [2, 4, 8, 16, 32],
             "kappa_ref": 64, "samples": 100, "seed": 1004},
    # single-path (almost sure) errors
    "fig5": {"equation": "wave", "alpha": 3.0, "kappas": [2, 4, 8, 16, 32],
             "kappa_ref": 128, "samples": 1, "seed": 1005},
    "fig5-alpha3": {"equation": "wave", "alpha": 3.0, "kappas": [2, 4, 8, 16, 32],
                    "kappa_ref": 128, "samples": 1, "seed": 1005},
    "fig5-alpha5": {"equation": "wave", "alpha": 5.0, "kappas": [2, 4, 8, 16, 32],
                    "kappa_ref": 128, "samples": 1, "seed": 1006},
    # weak errors of the two test functionals, coupled Monte Carlo
    "weak-norm2": {"equation": "wave", "alpha": 3.0, "kappas": [2, 4, 8, 16, 32],
                   "kappa_ref": 128, "samples": 1000, "seed": 1007,
                   "weak_functional": "squared-norm", "weak_method": "mc"},
    "weak-expnorm2": {"equation": "wave", "alpha": 3.0, "kappas": [2, 4, 8, 16, 32],
                      "kappa_ref": 128, "samples": 1000, "seed": 1008,
                      "weak_functional": "exp-neg-squared-norm", "weak_method": "mc"},
    # exact weak errors of the squared norm: per-degree tail sums, no sampling
    "weak-oracle": {"equation": "wave", "alpha": 3.0,
                    "kappas": [16, 32, 64, 128, 256], "kappa_ref": 4096,
                    "seed": 1009, "weak_functional": "squared-norm",
                    "weak_method": "analytic"},
    # free Schrodinger equation
    "sch-fig7": {"equation": "schrodinger", "alpha": 4.0,
                 "kappas": [2, 4, 8, 16, 32], "kappa_ref": 128,
                 "samples": 100, "seed": 1010},
    # wave equation on S^3 (coefficient-space errors only)
    "dsphere-d4": {"equation": "wave-dsphere", "dim": 4, "alpha": 4.0,
                   "kappas": [2, 4, 8, 16, 32], "kappa_ref": 128,
                   "samples": 100, "seed": 1011},
}

_CONFIG_KEYS = {f.name for f in dataclass_fields(ExperimentConfig)}


def _parse_kappas(text):
    """Comma-separated band limits; a list from a config file is left to
    ExperimentConfig.validate, which refuses values that are not integers."""
    if isinstance(text, (list, tuple)):
        return list(text)
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _add_flags(parser: argparse.ArgumentParser):
    """The flags of every subcommand: one per config key, then --debug."""
    parser.add_argument("--config", help="JSON file with flat config keys")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named experiment preset")
    parser.add_argument("--equation", choices=EQUATIONS)
    parser.add_argument("--dim", type=int, help="ambient dimension (wave-dsphere)")
    parser.add_argument("--alpha", type=float, help="spectrum decay exponent")
    parser.add_argument("--scale", type=float, help="spectrum prefactor (0 = no noise)")
    parser.add_argument("--ell0", type=int, help="start of the power-law tail")
    parser.add_argument("--head-value", dest="head_value", type=float,
                        help="spectrum value at ell = 0")
    parser.add_argument("--beta", type=float, help="Sobolev exponent of random v1")
    parser.add_argument("--gamma", type=float, help="Sobolev exponent of random v2")
    parser.add_argument("--initial-data", dest="initial_data",
                        choices=INITIAL_DATA_MODES)
    parser.add_argument("--v1-file", dest="v1_file")
    parser.add_argument("--v2-file", dest="v2_file")
    parser.add_argument("--T", type=float, help="final time")
    parser.add_argument("--steps", type=int, help="time steps for simulate")
    parser.add_argument("--kappas", type=_parse_kappas, help="comma-separated band limits")
    parser.add_argument("--kappa-ref", dest="kappa_ref", type=int,
                        help="reference band limit")
    parser.add_argument("--samples", type=int, help="Monte Carlo samples")
    parser.add_argument("--seed", type=int, help="base seed")
    parser.add_argument("--error-kind", dest="error_kind",
                        choices=ERROR_KINDS)
    parser.add_argument("--n-theta", dest="n_theta", type=int, help="grid colatitudes")
    parser.add_argument("--n-phi", dest="n_phi", type=int, help="grid longitudes")
    parser.add_argument("--weak-functional", dest="weak_functional",
                        choices=list(FUNCTIONALS))
    parser.add_argument("--weak-method", dest="weak_method", choices=WEAK_METHODS,
                        help="mc: coupled Monte Carlo; analytic: exact squared-norm "
                             "errors from the per-degree law, without sampling")
    parser.add_argument("--store-every", dest="store_every", type=int,
                        help="trajectory storage stride")
    parser.add_argument("--threads", type=int,
                        help="worker threads for chunks of per-mode samples (grid errors)")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--debug", action="store_true",
                        help="re-raise a failure with its traceback after the error line")


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = {}
    if args.preset:
        merged.update(PRESETS[args.preset])
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "kappas" in file_cfg:
            file_cfg["kappas"] = _parse_kappas(file_cfg["kappas"])
        merged.update(file_cfg)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    cfg = ExperimentConfig(**merged)
    cfg.validate()
    return cfg


def _write_tables(cfg, tables, stem, theory=None):
    ensure_dir(cfg.output)
    written = []
    for component, table in tables.items():
        if theory is not None:
            table.metadata["theory_slope"] = theory[component]
        base = os.path.join(cfg.output, f"{stem}_{component}")
        write_error_table_csv(base + ".csv", table)
        write_error_table_json(base + ".json", table)
        written.extend([base + ".csv", base + ".json"])
    return written


def cmd_convergence(cfg: ExperimentConfig) -> list[str]:
    tables = strong_error_experiment(cfg)
    return _write_tables(cfg, tables, "convergence", theoretical_rates(cfg))


def cmd_path_error(cfg: ExperimentConfig) -> list[str]:
    tables = pathwise_error_experiment(cfg)
    return _write_tables(cfg, tables, "path_error", theoretical_rates(cfg))


def cmd_weak(cfg: ExperimentConfig) -> list[str]:
    if cfg.weak_method == "analytic":
        tables = analytic_weak_error_experiment(cfg)
    else:
        tables = weak_error_experiment(cfg)
    # second moments converge at twice the strong rate
    theory = {k: 2.0 * v for k, v in theoretical_rates(cfg).items()}
    return _write_tables(cfg, tables, "weak", theory)


def _simulate_initial(cfg):
    """The initial data of grid-error sample 0, drawn from sample 0's generator."""
    n = mode_count(cfg.kappa_ref, cfg.dim)
    return tuple(CoefficientField(np.full(n, v), cfg.kappa_ref, cfg.dim)
                 for v in initial_data(cfg)(*_sample_rngs(cfg.seed, [0])))


# Peak resident bytes per mode of simulate and sample-field (states, noise and
# the path's per-mode step arrays; the writers hold one pass of rows, not the
# mode labels): the growth of peak RSS between 87k and 609k modes of
# `simulate --equation wave-dsphere --dim 5 --steps 2` was 136.4 B per mode in
# three fresh processes, and 15.4 to 15.5 B for `sample-field`.
BYTES_PER_MODE = 137


def _check_state_memory(cfg: ExperimentConfig):
    """Refuse, before allocating anything, a state larger than physical memory,
    and on S^2 a grid whose field synthesis would not fit either."""
    modes = mode_count(cfg.kappa_ref, cfg.dim)
    nbytes = modes * BYTES_PER_MODE
    memory = harmonics._physical_memory()
    if memory is not None and nbytes > memory:
        raise ValueError(
            f"kappa_ref={cfg.kappa_ref} with dim={cfg.dim} has {modes} modes, which need "
            f"about {nbytes / 1e9:.1f} GB, more than the {memory / 1e9:.1f} GB of "
            f"physical memory")
    if cfg.dim == 3:
        harmonics.synthesis_field_bytes(cfg.kappa_ref, cfg.grid_shape())


def cmd_simulate(cfg: ExperimentConfig) -> list[str]:
    _check_state_memory(cfg)
    ensure_dir(cfg.output)
    ps = cfg.power_spectrum()
    v1, v2 = _simulate_initial(cfg)
    meta = cfg.resolved()
    written = []
    traj_path = os.path.join(cfg.output, "trajectory.csv")
    states = run_path(ps, v1, v2, cfg.kappa_ref, cfg.dim, cfg.T, cfg.steps, cfg.seed,
                      cfg.store_every, cfg.equation)
    final = write_wave_trajectory_csv(traj_path, states, cfg.seed, meta,
                                      cfg.component_names()).u1
    written.append(traj_path)
    if cfg.dim == 3:
        field = synthesize(final, cfg.grid())
        field_path = os.path.join(cfg.output, "final_field.csv")
        write_grid_field_csv(field_path, field, meta)
        written.append(field_path)
    return written


def cmd_sample_field(cfg: ExperimentConfig) -> list[str]:
    """Draw one isotropic Gaussian random field and export it."""
    _check_state_memory(cfg)
    ensure_dir(cfg.output)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    sample = sample_isotropic_grf(cfg.power_spectrum(), cfg.kappa_ref, cfg.dim, rng)
    meta = cfg.resolved()
    written = []
    coeff_path = os.path.join(cfg.output, "sample_coefficients.csv")
    write_coefficient_csv(coeff_path, sample, meta)
    written.append(coeff_path)
    if cfg.dim == 3:
        field_path = os.path.join(cfg.output, "sample_field.csv")
        write_grid_field_csv(field_path, synthesize(sample, cfg.grid()), meta)
        written.append(field_path)
    return written


# subcommand: (function, help line)
_COMMANDS = {
    "simulate": (cmd_simulate, "sample one path and export the trajectory"),
    "convergence": (cmd_convergence, "mean-square truncation errors across band limits"),
    "weak": (cmd_weak, "weak errors of a test functional across band limits"),
    "path-error": (cmd_path_error, "truncation errors of a single realization"),
    "sample-field": (cmd_sample_field, "draw and export one isotropic random field"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it.

    The flags are defined once, on a parent parser that every subcommand
    copies: argparse copies parent actions without formatting each one again.
    """
    parser = argparse.ArgumentParser(
        prog="spherewave",
        description="Spectral solver and convergence lab for stochastic wave and "
                    "Schrodinger equations on spheres.")
    flags = argparse.ArgumentParser(add_help=False)
    _add_flags(flags)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[flags])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        written = _COMMANDS[args.command][0](cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        if args.debug:
            raise
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
