"""Exact-in-distribution stepping for the free stochastic Schrodinger equation on S^2.

In real/imaginary coefficient pairs one step of size h applies the rotation

    [uR]   [ cos x   sin x ] [uR]   [ W1]
    [uI] = [ -sin x  cos x ] [uI] + [-W2]

with x = sqrt(lam) h.  The noise drives only the imaginary equation, with a
minus sign; (W1, W2) carries the exact covariance of the sine/cosine kernel
convolution (no 1/sqrt(lam) damping on the sine kernel, unlike the wave case).

This is the wave module's step under the Schrodinger law
(noise.ConvFactorTable.for_schrodinger); the functions here fix the equation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .modes import CoefficientField
from .noise import ConvFactorTable
from .spectrum import PowerSpectrum
from .wave import State, run_path, step


def schrodinger_step(state: State, h: float, ps: PowerSpectrum,
                     rng: np.random.Generator, factors: ConvFactorTable) -> State:
    """wave.step with a Schrodinger factor table, which only a dim-3 state matches."""
    factors.require(state.kappa, state.dim, h, "schrodinger")
    return step(state, h, ps, rng, factors)


def run_path_schrodinger(ps: PowerSpectrum, vr: CoefficientField, vi: CoefficientField,
                         kappa: int, T: float, steps: int, seed: int,
                         store_every: int = 1) -> Iterator[State]:
    """wave.run_path of the Schrodinger equation on S^2."""
    return run_path(ps, vr, vi, kappa, 3, T, steps, seed, store_every, "schrodinger")
