"""Exact-in-distribution time stepping for the stochastic wave equation on S^{d-1}.

Modes evolve independently: one step of size h applies the per-degree rotation

    [u1]   [ R2(h)        R1(h) ] [u1]   [W1]
    [u2] = [ -lam R1(h)   R2(h) ] [u2] + [W2]

with R1 = sin(sqrt(lam) h)/sqrt(lam), R2 = cos(sqrt(lam) h), and correlated
Gaussian increments (W1, W2) drawn from the exact convolution covariance.  No
time-discretization error is introduced; truncation at the band limit is the
only approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .modes import CoefficientField, laplacian_eigenvalue, mode_degrees
from .noise import ConvFactorTable, sample_wave_conv_increments
from .spectrum import PowerSpectrum


@dataclass(eq=False)
class WaveState:
    position: CoefficientField
    velocity: CoefficientField
    t: float = 0.0

    def __post_init__(self):
        if (self.position.kappa, self.position.dim) != (self.velocity.kappa, self.velocity.dim):
            raise ValueError("position and velocity must share band limit and dimension")

    @property
    def kappa(self) -> int:
        return self.position.kappa

    @property
    def dim(self) -> int:
        return self.position.dim


@dataclass(frozen=True, eq=False)
class Propagator:
    """Per-degree rotation entries for one step size; determinant 1 for every degree."""

    kappa: int
    dim: int
    h: float
    lam: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    @classmethod
    def build(cls, kappa: int, dim: int, h: float) -> "Propagator":
        lam = np.array([-laplacian_eigenvalue(ell, dim) for ell in range(kappa + 1)])
        r1 = np.empty(kappa + 1)
        r2 = np.empty(kappa + 1)
        r1[0] = h  # lam -> 0 limit of sin(sqrt(lam) h)/sqrt(lam)
        r2[0] = 1.0
        sq = np.sqrt(lam[1:])
        r1[1:] = np.sin(sq * h) / sq
        r2[1:] = np.cos(sq * h)
        return cls(kappa, dim, h, lam, r1, r2)

    def matrix(self, ell: int) -> np.ndarray:
        return np.array([[self.r2[ell], self.r1[ell]],
                         [-self.lam[ell] * self.r1[ell], self.r2[ell]]])

    def determinants(self) -> np.ndarray:
        return self.r2**2 + self.lam * self.r1**2


def init_state(v1: CoefficientField, v2: CoefficientField, kappa: int, dim: int = 3) -> WaveState:
    """State at t = 0; higher modes of the data are truncated, missing ones zero."""
    if v1.dim != dim or v2.dim != dim:
        raise ValueError("initial data dimension does not match the requested dimension")
    return WaveState(v1.truncated(kappa), v2.truncated(kappa), t=0.0)


def propagate(state: WaveState, prop: Propagator) -> WaveState:
    """Deterministic part of one step (exact rotation, zero noise)."""
    deg = mode_degrees(state.kappa, state.dim)
    r1, r2, lam = prop.r1[deg], prop.r2[deg], prop.lam[deg]
    u1, u2 = state.position.data, state.velocity.data
    new1 = r2 * u1 + r1 * u2
    new2 = -lam * r1 * u1 + r2 * u2
    return WaveState(CoefficientField(new1, state.kappa, state.dim),
                     CoefficientField(new2, state.kappa, state.dim),
                     t=state.t + prop.h)


def add_increments(state: WaveState, w1: CoefficientField, w2: CoefficientField) -> WaveState:
    return WaveState(CoefficientField(state.position.data + w1.data, state.kappa, state.dim),
                     CoefficientField(state.velocity.data + w2.data, state.kappa, state.dim),
                     t=state.t)


def step(state: WaveState, h: float, ps: PowerSpectrum, rng: np.random.Generator,
         factors: ConvFactorTable, prop: Propagator | None = None) -> WaveState:
    """One exact step of size h: rotation plus correlated convolution increment."""
    factors.require("wave", state.kappa, state.dim, h)
    if prop is None:
        prop = Propagator.build(state.kappa, state.dim, h)
    elif (prop.kappa, prop.dim, prop.h) != (state.kappa, state.dim, h):
        raise ValueError("propagator does not match state and step size")
    w1, w2 = sample_wave_conv_increments(ps, factors, rng)
    return add_increments(propagate(state, prop), w1, w2)


def run_path(ps: PowerSpectrum, v1: CoefficientField, v2: CoefficientField,
             kappa: int, dim: int, T: float, steps: int, seed: int,
             store_every: int = 1) -> Iterator[WaveState]:
    """Sample one path on the uniform grid t_j = j T / steps.

    Yields the stored states (always including t = 0 and t = T) as they are
    reached, so only the current state is held; the arguments are checked
    when the function is called.  The draw order is fixed, so a given seed
    reproduces the trajectory bit for bit.
    """
    check_path_args(T, steps, store_every)
    h = T / steps
    factors = ConvFactorTable.for_wave(kappa, dim, h)
    prop = Propagator.build(kappa, dim, h)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return stored_states(init_state(v1, v2, kappa, dim),
                         lambda state: step(state, h, ps, rng, factors, prop),
                         steps, store_every)


def check_path_args(T: float, steps: int, store_every: int):
    """Arguments shared by the path samplers of both equations."""
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if not T > 0.0:
        raise ValueError(f"final time must be positive, got {T}")
    if store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")


def stored_states(state, advance: Callable, steps: int, store_every: int) -> Iterator:
    """Yield state, then every store_every-th of `steps` advances and the last one."""
    yield state
    for j in range(1, steps + 1):
        state = advance(state)
        if j % store_every == 0 or j == steps:
            yield state


def mode_energy(state: WaveState) -> np.ndarray:
    """Per-degree oscillator energy lam |u1|^2 + |u2|^2; conserved without noise."""
    lam = np.array([-laplacian_eigenvalue(ell, state.dim) for ell in range(state.kappa + 1)])
    return lam * state.position.degree_power() + state.velocity.degree_power()
