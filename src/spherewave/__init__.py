"""Spectral solver and convergence lab for stochastic wave and Schrodinger
equations on spheres driven by isotropic Q-Wiener noise.

The exports are resolved on first use (PEP 562), so `import spherewave` loads
neither numpy nor any submodule: the command line (spherewave.__main__) can
set the BLAS thread count before numpy is imported.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("GridField", "SphereGrid", "synthesize"), "harmonics"),
    **dict.fromkeys(("ErrorTable", "ExperimentConfig", "analytic_weak_error_experiment",
                     "fit_rate", "pathwise_error_experiment", "strong_error_experiment",
                     "theoretical_rates", "weak_error_experiment"), "harness"),
    **dict.fromkeys(("CoefficientField", "harmonic_dimension", "mode_count"), "modes"),
    **dict.fromkeys(("ConvFactorTable", "sample_isotropic_grf"), "noise"),
    "PowerSpectrum": "spectrum",
    **dict.fromkeys(("State", "init_state", "run_path", "step"), "wave"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
