"""Exact-in-distribution time stepping for the stochastic wave equation on S^{d-1}.

Modes evolve independently: one step of size h applies the per-degree rotation

    [u1]   [ R2(h)        R1(h) ] [u1]   [W1]
    [u2] = [ -lam R1(h)   R2(h) ] [u2] + [W2]

with R1 = sin(sqrt(lam) h)/sqrt(lam), R2 = cos(sqrt(lam) h), and correlated
Gaussian increments (W1, W2) drawn from the exact convolution covariance.  No
time-discretization error is introduced; truncation at the band limit is the
only approximation.

The free Schrodinger equation (see schrodinger.py) takes the same step with
other rotation entries and -W2.  The functions here read the per-degree law
of either equation (noise.ConvFactorTable) and never the equation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .modes import CoefficientField, mode_degrees
from .noise import ConvFactorTable, ModeFactors, Propagator
from .spectrum import PowerSpectrum


@dataclass(eq=False)
class State:
    """The two components of a solution at time t: (position, velocity) for the
    wave equation, (real, imaginary part) for the Schrodinger equation."""

    u1: CoefficientField
    u2: CoefficientField
    t: float = 0.0

    def __post_init__(self):
        if (self.u1.kappa, self.u1.dim) != (self.u2.kappa, self.u2.dim):
            raise ValueError("the two components must share band limit and dimension")

    @property
    def kappa(self) -> int:
        return self.u1.kappa

    @property
    def dim(self) -> int:
        return self.u1.dim


def init_state(v1: CoefficientField, v2: CoefficientField, kappa: int, dim: int = 3) -> State:
    """State at t = 0; higher modes of the data are truncated, missing ones zero."""
    if v1.dim != dim or v2.dim != dim:
        raise ValueError("initial data dimension does not match the requested dimension")
    return State(v1.truncated(kappa), v2.truncated(kappa), t=0.0)


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


@dataclass(frozen=True, eq=False)
class ModeStepper:
    """advance(u1, u2, rng): one exact step of every mode, M u + (W1, +-W2).

    `rotation` holds the per-mode entries of M (see rotate) and `noise` the
    per-mode increment factors, so a caller can form M u once for data that
    several steps start from.
    """

    rotation: tuple[np.ndarray, ...]
    noise: ModeFactors

    def __call__(self, u1, u2, rng: np.random.Generator):
        return self.noise.add(*rotate(self.rotation, u1, u2), rng)


def mode_stepper(law: ConvFactorTable, ps: PowerSpectrum) -> ModeStepper:
    """The step of `law`, its per-degree entries expanded to every mode once,
    here, not on every step."""
    return ModeStepper(expand(law.rotation, law.kappa, law.dim), ModeFactors.expand(ps, law))


def _advanced(state: State, h: float, u1: np.ndarray, u2: np.ndarray) -> State:
    return State(CoefficientField(u1, state.kappa, state.dim),
                 CoefficientField(u2, state.kappa, state.dim), t=state.t + h)


def propagate(state: State, prop: Propagator) -> State:
    """Deterministic part of one wave step (exact rotation, zero noise)."""
    rotation = expand(prop.rotation(), state.kappa, state.dim)
    return _advanced(state, prop.h, *rotate(rotation, state.u1.data, state.u2.data))


def step(state: State, h: float, ps: PowerSpectrum, rng: np.random.Generator,
         factors: ConvFactorTable) -> State:
    """One exact step of size h under the law `factors`, of either equation."""
    factors.require(state.kappa, state.dim, h)
    return _advanced(state, h, *mode_stepper(factors, ps)(state.u1.data, state.u2.data, rng))


def run_path(ps: PowerSpectrum, v1: CoefficientField, v2: CoefficientField,
             kappa: int, dim: int, T: float, steps: int, seed: int,
             store_every: int = 1, equation: str = "wave") -> Iterator[State]:
    """Sample one path of `equation` on the uniform grid t_j = j T / steps.

    Yields the stored states (always including t = 0 and t = T) as they are
    reached, so only the current state is held; the arguments are checked
    when the function is called.  The draw order is fixed, so a given seed
    reproduces the trajectory bit for bit.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if not T > 0.0:
        raise ValueError(f"final time must be positive, got {T}")
    if store_every < 1:
        raise ValueError(f"store_every must be >= 1, got {store_every}")
    h = T / steps
    advance = mode_stepper(ConvFactorTable.for_equation(equation, kappa, dim, h), ps)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return stored_states(init_state(v1, v2, kappa, dim),
                         lambda s: _advanced(s, h, *advance(s.u1.data, s.u2.data, rng)),
                         steps, store_every)


def stored_states(state, advance: Callable, steps: int, store_every: int) -> Iterator:
    """Yield state, then every store_every-th of `steps` advances and the last one."""
    yield state
    for j in range(1, steps + 1):
        state = advance(state)
        if j % store_every == 0 or j == steps:
            yield state
