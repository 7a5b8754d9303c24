"""Isotropic noise sampling and per-mode stochastic-convolution covariances.

Each degree-ell mode of the stochastic convolution for the wave equation is a
centered Gaussian 2-vector integrating the kernel pair

    R1(s) = sin(sqrt(lam) s)/sqrt(lam),   R2(s) = cos(sqrt(lam) s),

with lam = ell (ell + dim - 2), against an independent Brownian motion.  With
x = sqrt(lam) t its 2x2 covariance is

    c11 = (2x - sin 2x) / (4 lam^(3/2))
    c12 = sin(x)^2 / (2 lam)
    c22 = (2x + sin 2x) / (4 sqrt(lam))

and for ell = 0 the degenerate limit C0(t) = [[t^3/3, t^2/2], [t^2/2, t]].
The free-Schrodinger kernels drop the 1/sqrt(lam) damping of the sine kernel,
which changes only the entry prefactors.

Factors follow the upper-triangular convention D^T D = C (sampling with
D^T X gives covariance exactly C); the explicit entries are

    d11 = sqrt(c11),  d12 = c12/d11,  d22 = sqrt(c22 - d12^2).

The combinations (2x - sin 2x) and sin(x)^2 lose all significant digits as
x -> 0 (leading orders x^3, x^2), so both switch to Taylor series below
SMALL_X; see the consistency tests for the branch agreement at the switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modes import CoefficientField, laplacian_eigenvalue, mode_degrees
from .spectrum import PowerSpectrum

# Taylor/direct switchover for x = sqrt(lam) * t.  At x = 0.05 the series below
# are accurate to ~1e-15 relative while the direct evaluation still carries
# ~1e-14; at x = 1e-3 the direct branch would be libm-limited to ~1e-10.
SMALL_X = 0.05


def _two_x_minus_sin_2x(x: np.ndarray) -> np.ndarray:
    """2x - sin(2x), stable for small x (leading order x^3)."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = x2 * x * (4.0 / 3.0 + x2 * (-4.0 / 15.0 + x2 * (8.0 / 315.0 - x2 * 4.0 / 2835.0)))
    return np.where(x < SMALL_X, series, 2.0 * x - np.sin(2.0 * x))


def _sin_squared(x: np.ndarray) -> np.ndarray:
    """sin(x)^2, stable for small x (leading order x^2)."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    series = x2 * (1.0 + x2 * (-1.0 / 3.0 + x2 * (2.0 / 45.0 - x2 / 315.0)))
    return np.where(x < SMALL_X, series, np.sin(x) ** 2)


@dataclass(frozen=True)
class ConvCovariance:
    """2x2 covariance of a per-mode stochastic-convolution vector."""

    c11: float
    c12: float
    c22: float
    lam: float
    t: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.c11, self.c12], [self.c12, self.c22]])

    def psd_defect(self) -> float:
        """det shortfall relative to c11*c22; >= -1e-14 for a valid covariance."""
        prod = self.c11 * self.c22
        if prod == 0.0:
            return 0.0
        return (prod - self.c12**2) / prod


def _wave_entries(lams: np.ndarray, t: float):
    """Vectorized wave covariance entries; lams[0] may be 0 (handled exactly)."""
    lams = np.asarray(lams, dtype=float)
    c11 = np.empty_like(lams)
    c12 = np.empty_like(lams)
    c22 = np.empty_like(lams)
    zero = lams == 0.0
    c11[zero] = t**3 / 3.0
    c12[zero] = t**2 / 2.0
    c22[zero] = t
    pos = ~zero
    lp = lams[pos]
    sq = np.sqrt(lp)
    x = sq * t
    c11[pos] = _two_x_minus_sin_2x(x) / (4.0 * lp * sq)
    c12[pos] = _sin_squared(x) / (2.0 * lp)
    c22[pos] = (2.0 * x + np.sin(2.0 * x)) / (4.0 * sq)
    return c11, c12, c22


def _schrodinger_entries(lams: np.ndarray, t: float):
    """Vectorized Schrodinger covariance entries; sine kernel vanishes at lam = 0."""
    lams = np.asarray(lams, dtype=float)
    c11 = np.empty_like(lams)
    c12 = np.empty_like(lams)
    c22 = np.empty_like(lams)
    zero = lams == 0.0
    c11[zero] = 0.0
    c12[zero] = 0.0
    c22[zero] = t
    pos = ~zero
    sq = np.sqrt(lams[pos])
    x = sq * t
    c11[pos] = _two_x_minus_sin_2x(x) / (4.0 * sq)
    c12[pos] = _sin_squared(x) / (2.0 * sq)
    c22[pos] = (2.0 * x + np.sin(2.0 * x)) / (4.0 * sq)
    return c11, c12, c22


def _factor_entries(c11, c12, c22):
    """Upper-triangular factor with D^T D = C; the d22 radicand is clamped at 0."""
    d11 = np.sqrt(c11)
    with np.errstate(divide="ignore", invalid="ignore"):
        d12 = np.where(d11 > 0.0, c12 / np.where(d11 > 0.0, d11, 1.0), 0.0)
    d22 = np.sqrt(np.maximum(c22 - d12**2, 0.0))
    return d11, d12, d22


def _check_time(t: float):
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")


def wave_conv_covariance(ell: int, dim: int, t: float) -> ConvCovariance:
    _check_time(t)
    lam = -laplacian_eigenvalue(ell, dim)
    c11, c12, c22 = _wave_entries(np.array([lam]), t)
    return ConvCovariance(float(c11[0]), float(c12[0]), float(c22[0]), lam, t)


def wave_conv_cholesky(ell: int, dim: int, t: float) -> tuple[float, float, float]:
    """(d11, d12, d22) with D^T D equal to the wave covariance."""
    _check_time(t)
    lam = -laplacian_eigenvalue(ell, dim)
    d11, d12, d22 = _factor_entries(*_wave_entries(np.array([lam]), t))
    return float(d11[0]), float(d12[0]), float(d22[0])


def schrodinger_conv_covariance(ell: int, t: float) -> ConvCovariance:
    _check_time(t)
    lam = -laplacian_eigenvalue(ell, 3)
    c11, c12, c22 = _schrodinger_entries(np.array([lam]), t)
    return ConvCovariance(float(c11[0]), float(c12[0]), float(c22[0]), lam, t)


def schrodinger_conv_cholesky(ell: int, t: float) -> tuple[float, float, float]:
    _check_time(t)
    lam = -laplacian_eigenvalue(ell, 3)
    d11, d12, d22 = _factor_entries(*_schrodinger_entries(np.array([lam]), t))
    return float(d11[0]), float(d12[0]), float(d22[0])


@dataclass(frozen=True, eq=False)
class ConvFactorTable:
    """Per-degree factor entries for one step size, precomputed once per run.

    Increments of the stochastic convolution are stationary in distribution,
    so a single table serves every step of a uniform time grid.
    """

    kind: str  # "wave" or "schrodinger"
    kappa: int
    dim: int
    h: float
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray

    @classmethod
    def for_wave(cls, kappa: int, dim: int, h: float) -> "ConvFactorTable":
        _check_time(h)
        lams = np.array([-laplacian_eigenvalue(ell, dim) for ell in range(kappa + 1)])
        d11, d12, d22 = _factor_entries(*_wave_entries(lams, h))
        return cls("wave", kappa, dim, h, d11, d12, d22)

    @classmethod
    def for_schrodinger(cls, kappa: int, h: float) -> "ConvFactorTable":
        _check_time(h)
        lams = np.array([-laplacian_eigenvalue(ell, 3) for ell in range(kappa + 1)])
        d11, d12, d22 = _factor_entries(*_schrodinger_entries(lams, h))
        return cls("schrodinger", kappa, 3, h, d11, d12, d22)

    def covariance_matrices(self) -> np.ndarray:
        """D^T D per degree, shape (kappa+1, 2, 2); for reconstruction checks."""
        out = np.empty((self.kappa + 1, 2, 2))
        out[:, 0, 0] = self.d11**2
        out[:, 0, 1] = out[:, 1, 0] = self.d11 * self.d12
        out[:, 1, 1] = self.d12**2 + self.d22**2
        return out

    def require(self, kind: str, kappa: int, dim: int, h: float):
        if (self.kind, self.kappa, self.dim) != (kind, kappa, dim) or self.h != h:
            raise ValueError(
                f"factor table built for ({self.kind}, kappa={self.kappa}, dim={self.dim}, "
                f"h={self.h}) does not match ({kind}, kappa={kappa}, dim={dim}, h={h})"
            )


def sample_isotropic_grf(ps: PowerSpectrum, kappa: int, dim: int,
                         rng: np.random.Generator) -> CoefficientField:
    """Band-limited isotropic Gaussian random field: each degree-ell coefficient
    is an independent N(0, A_ell) draw, in flat storage order."""
    sigma = np.sqrt(ps.values(kappa))[mode_degrees(kappa, dim)]
    return CoefficientField(sigma * rng.standard_normal(sigma.size), kappa, dim)


def wiener_increment(ps: PowerSpectrum, kappa: int, dim: int, h: float,
                     rng: np.random.Generator) -> CoefficientField:
    """Increment of the Q-Wiener process over a step h (spectrum scaled by h)."""
    _check_time(h)
    sigma = np.sqrt(h * ps.values(kappa))[mode_degrees(kappa, dim)]
    return CoefficientField(sigma * rng.standard_normal(sigma.size), kappa, dim)


def sample_degree_wishart(l11: np.ndarray, l21: np.ndarray, l22: np.ndarray,
                          dof: np.ndarray, rngs):
    """Wishart_2(dof_ell, L_ell L_ell^T) matrices per degree (Bartlett decomposition).

    With A = [[a11, 0], [a21, a22]], a11^2 ~ chi2(dof), a22^2 ~ chi2(dof - 1) and
    a21 ~ N(0, 1) independent, S = (L A)(L A)^T has the Wishart_2(dof, L L^T) law
    for dof >= 1 (Bartlett 1933).  chi2(k) is drawn as 2 standard_gamma(k/2), the
    bits of gamma(k/2, 2) with the generator left in the same state, so dof = 1
    gives a22 = 0, and dof = 0 gives S = 0.  L = [[l11, 0], [l21, l22]] per degree.

    One independent draw per generator of the sequence `rngs`: each draws
    a11^2 for every degree, then every a22^2, then every a21, into its own row,
    and the algebra then runs once on all rows.  Returns the entries
    (s11, s12, s22), each of shape (len(rngs), len(dof)).
    """
    dof = np.asarray(dof, dtype=float)
    k11 = dof / 2.0
    k22 = np.maximum(dof - 1.0, 0.0) / 2.0
    g11, g22, a21 = (np.empty((len(rngs), len(dof))) for _ in range(3))
    for row, rng in enumerate(rngs):
        rng.standard_gamma(k11, out=g11[row])
        rng.standard_gamma(k22, out=g22[row])
        rng.standard_normal(out=a21[row])
    a11 = np.sqrt(2.0 * g11)
    a22 = np.sqrt(2.0 * g22)
    a21 = np.where(dof > 0.0, a21, 0.0)
    # rows of L A: (p, 0) and (q, r), so S is a sum of squares entry by entry
    p = l11 * a11
    q = l21 * a11 + l22 * a21
    r = l22 * a22
    return p * p, p * q, q * q + r * r


@dataclass(frozen=True, eq=False)
class ModeFactors:
    """Per-mode increment factors of one factor table and spectrum, expanded once.

    Per mode (W1, W2) = sqrt(A_ell) D_ell^T X, evaluated as W1 = f11 X1 and
    W2 = sa (d12 X1 + d22 X2) with f11 = sqrt(A_ell) d11 and sa = sqrt(A_ell);
    keeping sa a separate factor of W2 fixes the rounding of every increment.
    Each array costs 8 bytes per mode: a path holds them for all its steps,
    the grid sampler only while it draws a chunk.
    """

    f11: np.ndarray
    sa: np.ndarray
    d12: np.ndarray
    d22: np.ndarray

    @classmethod
    def expand(cls, ps: PowerSpectrum, factors: ConvFactorTable) -> "ModeFactors":
        degrees = mode_degrees(factors.kappa, factors.dim)
        sa = np.sqrt(ps.values(factors.kappa))
        return cls((sa * factors.d11)[degrees], sa[degrees], factors.d12[degrees],
                   factors.d22[degrees])

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """(W1, W2) arrays.  Normals are consumed in storage order, two per mode
        (X1 then X2), so runs are bit-reproducible for a given generator state."""
        x = rng.standard_normal((self.sa.size, 2))
        w1 = self.f11 * x[:, 0]
        w2 = self.d12 * x[:, 0]
        w2 += self.d22 * x[:, 1]
        w2 *= self.sa
        return w1, w2

    def add(self, u1, u2, rng: np.random.Generator, minus: bool = False):
        """(u1 + W1, u2 + W2), or u2 - W2 with `minus`, for one fresh draw."""
        w1, w2 = self.draw(rng)
        np.add(u1, w1, out=w1)
        (np.subtract if minus else np.add)(u2, w2, out=w2)
        return w1, w2


def _sample_conv_increments(ps, factors, rng):
    """Common increment sampler: per mode (W1, W2) = sqrt(A_ell) D^T X."""
    w1, w2 = ModeFactors.expand(ps, factors).draw(rng)
    return (CoefficientField(w1, factors.kappa, factors.dim),
            CoefficientField(w2, factors.kappa, factors.dim))


def sample_wave_conv_increments(ps: PowerSpectrum, factors: ConvFactorTable,
                                rng: np.random.Generator):
    """(W1, W2) increment fields with per-mode covariance A_ell * C_ell(h)."""
    if factors.kind != "wave":
        raise ValueError(f"expected a wave factor table, got kind={factors.kind!r}")
    return _sample_conv_increments(ps, factors, rng)


def sample_schrodinger_conv_increments(ps: PowerSpectrum, factors: ConvFactorTable,
                                       rng: np.random.Generator):
    """(W1, W2) increment fields for the Schrodinger kernels."""
    if factors.kind != "schrodinger":
        raise ValueError(f"expected a schrodinger factor table, got kind={factors.kind!r}")
    return _sample_conv_increments(ps, factors, rng)
