"""The benchmark's workloads: which CLI commands one operation runs, and why.

Every workload is a closed loop with one client: the next command starts
after the previous one has returned.  A command's parameters are spelled out
here rather than taken from a CLI preset, so that editing a preset does not
silently change the benchmark, and so that the oracle checks read the same
parameters the program was given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KAPPAS = "2,4,8,16,32"


@dataclass(frozen=True)
class Command:
    """One `spherewave <kind> ...` invocation, minus --seed and --output."""

    kind: str                 # CLI subcommand
    check: str                # name of the oracle check in oracle.py
    params: dict = field(default_factory=dict)

    def argv(self, seed: int, output: str, **overrides) -> list[str]:
        params = {**self.params, **overrides, "seed": seed, "output": output}
        argv = [self.kind]
        for key, value in params.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        return argv

    @property
    def samples(self) -> int:
        """Monte Carlo samples one run completes; a simulated path is one sample."""
        return 1 if self.kind == "simulate" else int(self.params["samples"])

    @property
    def steps(self) -> int:
        """Exact time steps one run takes; error experiments take one per sample."""
        if self.kind == "simulate":
            return int(self.params["steps"])
        return self.samples


@dataclass(frozen=True)
class Workload:
    name: str
    heavy_layers: tuple[str, ...]   # layers that should hold most of the traced time
    commands: tuple[Command, ...]


def _coefficient_run(kind, check, **params):
    base = {"T": 1.0, "kappas": KAPPAS, "kappa_ref": 256, "samples": 100, "threads": 2}
    return Command(kind, check, {**base, **params})


WORKLOADS = {
    "mc-coeff": Workload(
        "mc-coeff",
        ("noise", "wave", "schrodinger"),
        (
            # rough noise, as the fig3 preset
            _coefficient_run("convergence", "strong-tails", equation="wave", alpha=1.0),
            # free Schrodinger equation, as the sch-fig7 preset
            _coefficient_run("convergence", "strong-tails", equation="schrodinger",
                             alpha=4.0),
            # weak error of the squared norm, as the weak-norm2 preset
            _coefficient_run("weak", "weak-tails", equation="wave", alpha=3.0,
                             weak_functional="squared-norm", weak_method="mc"),
        ),
    ),
    "grid-max": Workload(
        "grid-max",
        ("harmonics",),
        (
            _coefficient_run("convergence", "grid-max", equation="wave", alpha=1.0,
                             error_kind="max-grid", samples=6, threads=1),
        ),
    ),
    "simulate-traj": Workload(
        "simulate-traj",
        ("io",),
        (
            Command("simulate", "trajectory",
                    {"equation": "wave", "alpha": 3.0, "T": 1.0, "kappa_ref": 64,
                     "steps": 32, "store_every": 1}),
        ),
    ),
}

# Which end-to-end metrics each per-layer metric should move, and on which
# workloads; on the "unchanged_on" workloads the prediction is no change.
# Keys are fnmatch patterns over the per-layer metric names.
LAYER_PREDICTIONS = {
    "noise.*": {"moves": ["samples_per_s"], "on": ["mc-coeff"],
                "unchanged_on": ["grid-max", "simulate-traj"]},
    "wave.*": {"moves": ["samples_per_s"], "on": ["mc-coeff"],
               "slightly_on": ["simulate-traj"]},
    "schrodinger.*": {"moves": ["samples_per_s"], "on": ["mc-coeff"]},
    "modes.mode_degrees_*": {"moves": ["samples_per_s"], "on": ["mc-coeff"],
                             "slightly_on": ["simulate-traj"]},
    "harness.*": {"moves": ["wall_s"], "on": ["mc-coeff"]},
    "harmonics.*": {"moves": ["wall_s", "peak_rss_mb"], "on": ["grid-max"]},
    "io.*": {"moves": ["wall_s", "steps_per_s"], "on": ["simulate-traj"],
             "unchanged_on": ["mc-coeff", "grid-max"]},
    "modes.mode_labels_s": {"moves": ["wall_s", "steps_per_s"], "on": ["simulate-traj"],
                            "unchanged_on": ["mc-coeff", "grid-max"]},
    "cli.self_s": {"moves": [], "on": [],
                   "unchanged_on": ["mc-coeff", "grid-max", "simulate-traj"]},
    # the cost of tracing and the heavy layers' share of traced time
    "trace.*": {"moves": [], "on": []},
}
