"""Spectral solver and convergence lab for stochastic wave and Schrodinger
equations on spheres driven by isotropic Q-Wiener noise."""

from .harmonics import GridField, SphereGrid, synthesize
from .harness import (ErrorTable, ExperimentConfig, analytic_weak_error_experiment, fit_rate,
                      pathwise_error_experiment, strong_error_experiment,
                      theoretical_rates, weak_error_experiment)
from .modes import (CoefficientField, harmonic_dimension, laplacian_eigenvalue,
                    mode_count)
from .noise import (ConvFactorTable, Propagator, sample_isotropic_grf,
                    sample_schrodinger_conv_increments, sample_wave_conv_increments)
from .schrodinger import run_path_schrodinger, schrodinger_step
from .spectrum import PowerSpectrum, random_sobolev_data
from .wave import State, init_state, run_path, step

__version__ = "0.1.0"
