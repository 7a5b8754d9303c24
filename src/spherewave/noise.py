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

A factor table (`ConvFactorTable`) is the whole per-degree law of one exact
step of either equation: the noise-free rotation M_ell, the factors D_ell and
the sign with which W2 enters.  `ConvFactorTable.for_equation` is the one
place that turns an equation into a law; everything that steps or samples
reads the law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modes import CoefficientField, laplacian_lambdas, mode_degrees
from .spectrum import PowerSpectrum

# Taylor/direct switchover for x = sqrt(lam) * t.  At x = 0.05 the series below
# are accurate to ~1e-15 relative while the direct evaluation still carries
# ~1e-14; at x = 1e-3 the direct branch would be libm-limited to ~1e-10.
SMALL_X = 0.05


def _two_x_minus_sin_2x(x: np.ndarray) -> np.ndarray:
    """2x - sin(2x), stable for small x (leading order x^3)."""
    x = np.asarray(x, dtype=float)
    small = np.minimum(x, SMALL_X)  # the series of a large x would overflow
    x2 = small * small
    series = x2 * small * (4.0 / 3.0 + x2 * (-4.0 / 15.0 + x2 * (8.0 / 315.0 - x2 * 4.0 / 2835.0)))
    return np.where(x < SMALL_X, series, 2.0 * x - np.sin(2.0 * x))


def _sin_squared(x: np.ndarray) -> np.ndarray:
    """sin(x)^2, stable for small x (leading order x^2)."""
    x = np.asarray(x, dtype=float)
    small = np.minimum(x, SMALL_X)  # the series of a large x would overflow
    x2 = small * small
    series = x2 * (1.0 + x2 * (-1.0 / 3.0 + x2 * (2.0 / 45.0 - x2 / 315.0)))
    return np.where(x < SMALL_X, series, np.sin(x) ** 2)


def _conv_entries(lams: np.ndarray, t: float, kind: str):
    """Vectorized covariance entries of the `kind` ("wave" or "schrodinger")
    kernels; lams[0] may be 0 (handled exactly).

    The wave's sine kernel carries 1/sqrt(lam), which divides c11 by lam and
    c12 by sqrt(lam) once more than for the Schrodinger kernel; at lam = 0
    the wave has the limit C0(t) and the Schrodinger sine kernel vanishes.
    """
    wave = kind == "wave"
    lams = np.asarray(lams, dtype=float)
    c11 = np.full_like(lams, t**3 / 3.0 if wave else 0.0)
    c12 = np.full_like(lams, t**2 / 2.0 if wave else 0.0)
    c22 = np.full_like(lams, t)
    pos = lams != 0.0
    lp = lams[pos]
    sq = np.sqrt(lp)
    x = sq * t
    c11[pos] = _two_x_minus_sin_2x(x) / (4.0 * (lp if wave else 1.0) * sq)
    c12[pos] = _sin_squared(x) / (2.0 * (lp if wave else sq))
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


@dataclass(frozen=True, eq=False)
class Propagator:
    """Per-degree entries of the noise-free wave step over h, R1(h) and R2(h);
    the map has determinant 1 for every degree."""

    kappa: int
    dim: int
    h: float
    lam: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    @classmethod
    def build(cls, kappa: int, dim: int, h: float) -> "Propagator":
        lam = laplacian_lambdas(kappa, dim)
        r1 = np.empty(kappa + 1)
        r2 = np.empty(kappa + 1)
        r1[0] = h  # lam -> 0 limit of sin(sqrt(lam) h)/sqrt(lam)
        r2[0] = 1.0
        sq = np.sqrt(lam[1:])
        r1[1:] = np.sin(sq * h) / sq
        r2[1:] = np.cos(sq * h)
        return cls(kappa, dim, h, lam, r1, r2)

    def rotation(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-degree (diagonal, upper, lower) entries of the map; see wave.rotate."""
        return self.r2, self.r1, -self.lam * self.r1


@dataclass(frozen=True, eq=False)
class ConvFactorTable:
    """The per-degree law of one exact step of size h, built once per run.

    Per mode one step maps u to M_ell u + (W1, sign * W2): M_ell has the
    per-degree entries `rotation` = (diagonal, upper, lower) (see
    wave.rotate), (W1, W2) = sqrt(A_ell) D_ell^T X with the factor entries
    (d11, d12, d22), and `sign` is -1 for the Schrodinger equation, whose
    noise enters the imaginary part with a minus sign.  W2 is subtracted
    there, not folded into D: -(a + b) and (-a) + (-b) differ when a and b
    are zeros of opposite sign, which would flip a signed zero of the state.
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
    rotation: tuple[np.ndarray, np.ndarray, np.ndarray]
    sign: float

    @classmethod
    def for_equation(cls, equation: str, kappa: int, dim: int, h: float) -> "ConvFactorTable":
        """The law of `equation` ("wave", "wave-dsphere" or "schrodinger")."""
        if equation == "schrodinger":
            if dim != 3:
                raise ValueError("the Schrodinger solver is defined on S^2 (dim == 3)")
            return cls.for_schrodinger(kappa, h)
        return cls.for_wave(kappa, dim, h)

    @classmethod
    def for_wave(cls, kappa: int, dim: int, h: float) -> "ConvFactorTable":
        _check_time(h)
        prop = Propagator.build(kappa, dim, h)
        d11, d12, d22 = _factor_entries(*_conv_entries(prop.lam, h, "wave"))
        return cls("wave", kappa, dim, h, d11, d12, d22, prop.rotation(), 1.0)

    @classmethod
    def for_schrodinger(cls, kappa: int, h: float) -> "ConvFactorTable":
        """The rotation has entries (cos x, sin x, -sin x) with x = sqrt(lam) h."""
        _check_time(h)
        lams = laplacian_lambdas(kappa)
        x = np.sqrt(lams) * h
        s = np.sin(x)
        d11, d12, d22 = _factor_entries(*_conv_entries(lams, h, "schrodinger"))
        return cls("schrodinger", kappa, 3, h, d11, d12, d22, (np.cos(x), s, -s), -1.0)

    def covariance_matrices(self) -> np.ndarray:
        """Covariance of (W1, sign * W2) per unit spectrum: D^T D with the sign on
        the off-diagonal, shape (kappa+1, 2, 2)."""
        out = np.empty((self.kappa + 1, 2, 2))
        out[:, 0, 0] = self.d11**2
        out[:, 0, 1] = out[:, 1, 0] = self.sign * (self.d11 * self.d12)
        out[:, 1, 1] = self.d12**2 + self.d22**2
        return out

    def rotation_matrices(self) -> np.ndarray:
        """M_ell per degree, shape (kappa+1, 2, 2)."""
        diag, upper, lower = self.rotation
        rows = ((diag, upper), (lower, diag))
        return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

    def require(self, kappa: int, dim: int, h: float, kind: str | None = None):
        """Reject a table built for another band limit, dimension, step (or kind)."""
        if ((self.kappa, self.dim) != (kappa, dim) or self.h != h
                or kind not in (None, self.kind)):
            raise ValueError(
                f"factor table built for ({self.kind}, kappa={self.kappa}, dim={self.dim}, "
                f"h={self.h}) does not match ({kind or self.kind}, kappa={kappa}, dim={dim}, "
                f"h={h})"
            )


def sample_isotropic_grf(ps: PowerSpectrum, kappa: int, dim: int,
                         rng: np.random.Generator) -> CoefficientField:
    """Band-limited isotropic Gaussian random field: each degree-ell coefficient
    is an independent N(0, A_ell) draw, in flat storage order."""
    sigma = np.sqrt(ps.values(kappa))[mode_degrees(kappa, dim)]
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
    and the algebra then runs once on all rows.  Both gammas come from one
    standard_gamma call over the shapes [k11, k22]: a generator draws an
    array's elements in order, so these are the bits of two calls, and numpy
    checks the shapes once per sample instead of twice.  Returns the entries
    (s11, s12, s22), each of shape (len(rngs), len(dof)).
    """
    dof = np.asarray(dof, dtype=float)
    n = len(dof)
    shapes = np.concatenate([dof / 2.0, np.maximum(dof - 1.0, 0.0) / 2.0])
    gammas = np.empty((len(rngs), 2 * n))
    a21 = np.empty((len(rngs), n))
    for row, rng in enumerate(rngs):
        rng.standard_gamma(shapes, out=gammas[row])
        rng.standard_normal(out=a21[row])
    a11 = np.sqrt(2.0 * gammas[:, :n])
    a22 = np.sqrt(2.0 * gammas[:, n:])
    a21 = np.where(dof > 0.0, a21, 0.0)
    # rows of L A: (p, 0) and (q, r), so S is a sum of squares entry by entry
    p = l11 * a11
    q = l21 * a11 + l22 * a21
    r = l22 * a22
    return p * p, p * q, q * q + r * r


@dataclass(frozen=True, eq=False)
class ModeFactors:
    """Per-mode increment factors of one law and spectrum, expanded once.

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
    sign: float

    @classmethod
    def expand(cls, ps: PowerSpectrum, law: ConvFactorTable) -> "ModeFactors":
        degrees = mode_degrees(law.kappa, law.dim)
        sa = np.sqrt(ps.values(law.kappa))
        return cls((sa * law.d11)[degrees], sa[degrees], law.d12[degrees], law.d22[degrees],
                   law.sign)

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """(W1, W2) arrays.  Normals are consumed in storage order, two per mode
        (X1 then X2), so runs are bit-reproducible for a given generator state."""
        x = rng.standard_normal((self.sa.size, 2))
        w1 = self.f11 * x[:, 0]
        w2 = self.d12 * x[:, 0]
        w2 += self.d22 * x[:, 1]
        w2 *= self.sa
        return w1, w2

    def add(self, u1, u2, rng: np.random.Generator):
        """(u1 + W1, u2 + sign * W2) for one fresh draw; a minus sign subtracts W2."""
        w1, w2 = self.draw(rng)
        np.add(u1, w1, out=w1)
        (np.add if self.sign > 0 else np.subtract)(u2, w2, out=w2)
        return w1, w2


def _sample_conv_increments(ps, factors, rng, kind):
    """Increment fields (W1, W2) = sqrt(A_ell) D^T X per mode of a `kind` table."""
    if factors.kind != kind:
        raise ValueError(f"expected a {kind} factor table, got kind={factors.kind!r}")
    w1, w2 = ModeFactors.expand(ps, factors).draw(rng)
    return (CoefficientField(w1, factors.kappa, factors.dim),
            CoefficientField(w2, factors.kappa, factors.dim))


def sample_wave_conv_increments(ps: PowerSpectrum, factors: ConvFactorTable,
                                rng: np.random.Generator):
    """(W1, W2) increment fields with per-mode covariance A_ell * C_ell(h)."""
    return _sample_conv_increments(ps, factors, rng, "wave")


def sample_schrodinger_conv_increments(ps: PowerSpectrum, factors: ConvFactorTable,
                                       rng: np.random.Generator):
    """(W1, W2) increment fields for the Schrodinger kernels."""
    return _sample_conv_increments(ps, factors, rng, "schrodinger")
