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
from .noise import ConvFactorTable, ModeFactors
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

    def rotation(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-degree (diagonal, upper, lower) entries of the map; see rotate."""
        return self.r2, self.r1, -self.lam * self.r1

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


def rotate(rotation, u1, u2):
    """(diag u1 + upper u2, lower u1 + diag u2) for rotation = (diag, upper, lower).

    The noise-free step of both equations has equal diagonal entries.  The
    entries are per mode, or per degree with per-degree (or scalar) u.
    """
    diag, upper, lower = rotation
    return diag * u1 + upper * u2, lower * u1 + diag * u2


def expand(per_degree, kappa: int, dim: int) -> tuple[np.ndarray, ...]:
    """Per-mode copies of per-degree arrays, 8 bytes per mode each."""
    degrees = mode_degrees(kappa, dim)
    return tuple(a[degrees] for a in per_degree)


def mode_stepper(rotation, ps: PowerSpectrum, factors: ConvFactorTable,
                 rng: np.random.Generator, minus: bool = False) -> Callable:
    """advance(u1, u2): one exact step of every mode, M u + (W1, +-W2).

    The per-degree rotation entries and the increment factors are expanded to
    every mode once, here, not on every step.  The second increment enters
    with a minus sign for the Schrodinger equation.
    """
    rotation = expand(rotation, factors.kappa, factors.dim)
    noise = ModeFactors.expand(ps, factors)
    return lambda u1, u2: noise.add(*rotate(rotation, u1, u2), rng, minus)


def propagate(state: WaveState, prop: Propagator) -> WaveState:
    """Deterministic part of one step (exact rotation, zero noise)."""
    new1, new2 = rotate(expand(prop.rotation(), state.kappa, state.dim),
                        state.position.data, state.velocity.data)
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
    u1, u2 = mode_stepper(prop.rotation(), ps, factors, rng)(state.position.data,
                                                               state.velocity.data)
    return WaveState(CoefficientField(u1, state.kappa, state.dim),
                     CoefficientField(u2, state.kappa, state.dim), t=state.t + h)


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
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    advance = mode_stepper(Propagator.build(kappa, dim, h).rotation(), ps, factors, rng)

    def next_state(state):
        u1, u2 = advance(state.position.data, state.velocity.data)
        return WaveState(CoefficientField(u1, kappa, dim), CoefficientField(u2, kappa, dim),
                         t=state.t + h)
    return stored_states(init_state(v1, v2, kappa, dim), next_state, steps, store_every)


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
