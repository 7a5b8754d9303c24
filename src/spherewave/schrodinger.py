"""Exact-in-distribution stepping for the free stochastic Schrodinger equation on S^2.

In real/imaginary coefficient pairs one step of size h applies the rotation

    [uR]   [ cos x   sin x ] [uR]   [ W1]
    [uI] = [ -sin x  cos x ] [uI] + [-W2]

with x = sqrt(lam) h.  The noise drives only the imaginary equation, with a
minus sign; (W1, W2) carries the exact covariance of the sine/cosine kernel
convolution (no 1/sqrt(lam) damping on the sine kernel, unlike the wave case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .modes import CoefficientField, laplacian_eigenvalue
from .noise import ConvFactorTable
from .spectrum import PowerSpectrum
from .wave import check_path_args, mode_stepper, stored_states


@dataclass(eq=False)
class SchrodingerState:
    real: CoefficientField
    imag: CoefficientField
    t: float = 0.0

    def __post_init__(self):
        if self.real.dim != 3 or self.imag.dim != 3:
            raise ValueError("the Schrodinger solver is defined on S^2 (dim == 3)")
        if self.real.kappa != self.imag.kappa:
            raise ValueError("real and imaginary parts must share the band limit")

    @property
    def kappa(self) -> int:
        return self.real.kappa


def init_schrodinger_state(vr: CoefficientField, vi: CoefficientField,
                           kappa: int) -> SchrodingerState:
    return SchrodingerState(vr.truncated(kappa), vi.truncated(kappa), t=0.0)


def rotation(kappa: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-degree (diagonal, upper, lower) entries (cos x, sin x, -sin x); see wave.rotate."""
    lam = np.array([-laplacian_eigenvalue(ell, 3) for ell in range(kappa + 1)])
    x = np.sqrt(lam) * h
    s = np.sin(x)
    return np.cos(x), s, -s


def schrodinger_step(state: SchrodingerState, h: float, ps: PowerSpectrum,
                     rng: np.random.Generator, factors: ConvFactorTable) -> SchrodingerState:
    factors.require("schrodinger", state.kappa, 3, h)
    kappa = state.kappa
    ur, ui = mode_stepper(rotation(kappa, h), ps, factors, rng, minus=True)(state.real.data,
                                                                            state.imag.data)
    return SchrodingerState(CoefficientField(ur, kappa, 3), CoefficientField(ui, kappa, 3),
                            t=state.t + h)


def run_path_schrodinger(ps: PowerSpectrum, vr: CoefficientField, vi: CoefficientField,
                         kappa: int, T: float, steps: int, seed: int,
                         store_every: int = 1) -> Iterator[SchrodingerState]:
    """Sample one path on the uniform grid; yields the stored states like
    wave.run_path, checks its arguments when called, bit-reproducible for a
    given seed."""
    check_path_args(T, steps, store_every)
    h = T / steps
    factors = ConvFactorTable.for_schrodinger(kappa, h)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    advance = mode_stepper(rotation(kappa, h), ps, factors, rng, minus=True)

    def next_state(state):
        ur, ui = advance(state.real.data, state.imag.data)
        return SchrodingerState(CoefficientField(ur, kappa, 3), CoefficientField(ui, kappa, 3),
                                t=state.t + h)
    return stored_states(init_schrodinger_state(vr, vi, kappa), next_state, steps, store_every)


def mode_modulus(state: SchrodingerState) -> np.ndarray:
    """Per-degree squared modulus |uR|^2 + |uI|^2; conserved without noise."""
    return state.real.degree_power() + state.imag.degree_power()
