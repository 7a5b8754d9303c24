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
import shutil
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from . import harmonics
from .harmonics import SphereGrid, synthesize
from .harness import (ExperimentConfig, _named, _sample_rngs, analytic_weak_error_experiment,
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


def _parse_kappas(text: str) -> list[int]:
    """The comma-separated band limits of --kappas."""
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _add_flags(parser: argparse.ArgumentParser):
    """The flags of every subcommand: --config and --preset, one per config key
    from its schema (harness._key), then --debug."""
    parser.add_argument("--config", help="JSON file with flat config keys")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named experiment preset")
    for f in dataclass_fields(ExperimentConfig):
        kind = f.metadata["kind"]
        parser.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"],
                            choices=f.metadata["choices"],
                            type=_parse_kappas if kind is list else kind)
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


# Peak resident bytes per mode of each command (states, noise and the path's
# per-mode step arrays; the writers hold one pass of rows, not the mode
# labels): the growth of peak RSS between 87k and 609k modes of
# `<command> --equation wave-dsphere --dim 5` (simulate with --steps 2) was
# 136.4 B per mode for simulate and 15.4 B for sample-field, in three fresh
# processes each; between 1.23M and 9.02M modes, 16.0 B for sample-field.
BYTES_PER_MODE = {"simulate": 137, "sample-field": 17}


def _check_state_memory(cfg: ExperimentConfig, command: str):
    """Refuse, before allocating anything, a state larger than physical memory,
    and on S^2 a grid whose field synthesis would not fit either."""
    modes = mode_count(cfg.kappa_ref, cfg.dim)
    nbytes = modes * BYTES_PER_MODE[command]
    memory = harmonics._physical_memory()
    if memory is not None and nbytes > memory:
        raise ValueError(
            f"kappa_ref={cfg.kappa_ref} with dim={cfg.dim} has {modes} modes, which need "
            f"about {nbytes / 1e9:.1f} GB, more than the {memory / 1e9:.1f} GB of "
            f"physical memory")
    if cfg.dim == 3:
        harmonics.check_synthesis_memory(cfg.kappa_ref, *cfg.grid_shape(), unfolded=True)


# Fewest bytes of a trajectory row: 'l,m,c,' and a '%.16e' value with its newline.
TRAJECTORY_ROW_BYTES = 6 + 23


def _check_trajectory_disk(cfg: ExperimentConfig):
    """Refuse, before the output directory is made, a trajectory whose rows
    alone would exceed the free space of the nearest existing directory."""
    states = 1 - (-cfg.steps // cfg.store_every)  # t = 0, then ceil(steps / store_every)
    nbytes = states * 2 * mode_count(cfg.kappa_ref, cfg.dim) * TRAJECTORY_ROW_BYTES
    existing = os.path.abspath(cfg.output)
    while not os.path.isdir(existing):
        existing = os.path.dirname(existing)
    free = shutil.disk_usage(existing).free
    if nbytes > free:
        raise ValueError(
            f"{_named('steps')} = {cfg.steps} with {_named('store_every')} = "
            f"{cfg.store_every} stores {states} states, at least {nbytes / 1e9:.3g} GB, "
            f"more than the {free / 1e9:.3g} GB free in {existing}")


def cmd_simulate(cfg: ExperimentConfig) -> list[str]:
    _check_state_memory(cfg, "simulate")
    _check_trajectory_disk(cfg)
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
        field = synthesize(final, SphereGrid(*cfg.grid_shape()))
        field_path = os.path.join(cfg.output, "final_field.csv")
        write_grid_field_csv(field_path, field, meta)
        written.append(field_path)
    return written


def cmd_sample_field(cfg: ExperimentConfig) -> list[str]:
    """Draw one isotropic Gaussian random field and export it."""
    _check_state_memory(cfg, "sample-field")
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
        write_grid_field_csv(field_path, synthesize(sample, SphereGrid(*cfg.grid_shape())), meta)
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
