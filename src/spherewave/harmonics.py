"""Legendre functions, sphere grids, and synthesis of coefficient fields on S^2.

The real orthonormal basis of degree ell is

    Y_{ell,0}          = Lbar_{ell,0}(theta)
    sqrt(2) * Lbar_{ell,m}(theta) * cos(m phi),   m = 1..ell
    sqrt(2) * Lbar_{ell,m}(theta) * sin(m phi),   m = 1..ell

where Lbar_{ell,m}(theta) = sqrt((2 ell + 1)/(4 pi) (ell-m)!/(ell+m)!)
P_{ell,m}(cos theta) and P_{ell,m} carries the Condon-Shortley phase (-1)^m.
All normalization factors are folded into the recurrences; raw factorials are
never formed.  The order-m seeds still scale like sin(theta)^m, and they
underflow where sin(theta) is small and m large; the worst colatitude is
sin(theta) = 1/e, where the addition theorem holds to 2e-13 up to degree 1900
and fails beyond about 1925.  Synthesis is therefore capped at
MAX_SYNTHESIS_BAND.

Grids are Gauss-Legendre in cos(theta) and uniform in phi, which makes the
quadrature exact for band-limited products and the discrete basis exactly
orthonormal at finite resolution.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .modes import CoefficientField, laplacian_eigenvalue, harmonic_dimension  # noqa: F401

FOUR_PI = 4.0 * math.pi

# Highest band limit whose Legendre table is verified: the addition theorem
# sum_m (2 - delta_m0) Lbar_{ell,m}^2 = (2 ell + 1)/(4 pi) holds to 2e-13 for
# every ell <= 1900 at the worst colatitude, sin(theta) = 1/e.
MAX_SYNTHESIS_BAND = 1900


def legendre(ell: int, mu):
    """Legendre polynomial P_ell(mu) by the three-term recurrence, P_ell(1) = 1."""
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    mu = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    p_prev = np.ones_like(mu)
    if ell == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = mu.copy()
    for n in range(1, ell):
        p, p_prev = ((2 * n + 1) * mu * p - n * p_prev) / (n + 1), p
    return p if p.ndim else float(p)


def assoc_legendre(ell: int, m: int, mu):
    """Associated Legendre function P_{ell,m}(mu) with the (-1)^m phase.

    Stable recurrence in ell at fixed m.  Unnormalized, so the seed
    (2m-1)!! overflows double precision around m = 150; use
    normalized_legendre for large orders.
    """
    if ell < 0 or not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got ell={ell}, m={m}")
    mu = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu) > 1.0):
        raise ValueError("argument must lie in [-1, 1]")
    # P_{m,m} = (-1)^m (2m-1)!! (1 - mu^2)^(m/2)
    pmm = np.ones_like(mu)
    if m > 0:
        s = np.sqrt((1.0 - mu) * (1.0 + mu))
        for k in range(1, m + 1):
            pmm = -pmm * (2 * k - 1) * s
    if ell == m:
        return pmm if pmm.ndim else float(pmm)
    pm1 = mu * (2 * m + 1) * pmm
    if ell == m + 1:
        return pm1 if pm1.ndim else float(pm1)
    for n in range(m + 2, ell + 1):
        pm1, pmm = ((2 * n - 1) * mu * pm1 - (n + m - 1) * pmm) / (n - m), pm1
    return pm1 if pm1.ndim else float(pm1)


def _normalized_diag_seed(m: int, sin_t, prev):
    """Lbar_{m,m} from Lbar_{m-1,m-1}; carries normalization and phase."""
    return -math.sqrt((2 * m + 1) / (2.0 * m)) * sin_t * prev


def normalized_legendre(ell: int, m: int, theta: float) -> float:
    """Fully normalized associated Legendre function Lbar_{ell,m}(theta).

    Lbar_{0,0} = 1/sqrt(4 pi); the basis functions built from Lbar are
    orthonormal on the sphere.  Accurate for degrees up to MAX_SYNTHESIS_BAND
    at every colatitude; above that, the seed sin(theta)^m underflows near
    sin(theta) = 1/e (see the module docstring).
    """
    if ell < 0 or not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got ell={ell}, m={m}")
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"colatitude must lie in [0, pi], got {theta}")
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    p = 1.0 / math.sqrt(FOUR_PI)
    for k in range(1, m + 1):
        p = _normalized_diag_seed(k, sin_t, p)
    if ell == m:
        return p
    p1 = math.sqrt(2 * m + 3.0) * cos_t * p
    if ell == m + 1:
        return p1
    for n in range(m + 2, ell + 1):
        a = math.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = math.sqrt((2.0 * n + 1.0) / (2.0 * n - 3.0)
                      * ((n - 1.0) ** 2 - m * m) / (n * n - m * m))
        p1, p = a * cos_t * p1 - b * p, p1
    return p1


def _pair_offsets(kappa: int) -> np.ndarray:
    """Row offset of order m in the packed (m-major) table of (ell, m) pairs."""
    m = np.arange(kappa + 2)
    return m * (kappa + 1) - m * (m - 1) // 2


def normalized_legendre_table(kappa: int, theta: np.ndarray) -> np.ndarray:
    """Lbar_{ell,m} for all ell <= kappa, m <= ell, at each colatitude.

    Returns an array of shape (n_pairs, n_theta) packed m-major: row
    _pair_offsets(kappa)[m] + (ell - m) holds (ell, m).  The seeds Lbar_{m,m}
    and Lbar_{m+1,m} are set order by order; the three-term recurrence then
    runs degree by degree over all orders m <= n - 2 at once.
    """
    theta = np.asarray(theta, dtype=float)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    offsets = _pair_offsets(kappa)
    table = np.empty((offsets[-1], theta.size))
    diag = np.full(theta.size, 1.0 / math.sqrt(FOUR_PI))
    for m in range(kappa + 1):
        if m > 0:
            diag = _normalized_diag_seed(m, sin_t, diag)
        table[offsets[m]] = diag
        if m < kappa:
            table[offsets[m] + 1] = math.sqrt(2 * m + 3.0) * cos_t * diag
    # prev[m], prev2[m]: Lbar_{n-1,m} and Lbar_{n-2,m} while degree n is built
    prev, prev2, work = np.empty((3, kappa + 1, theta.size))
    for n in range(2, kappa + 1):
        k = n - 1  # orders m < k recur; order k - 1 joins from its two seeds
        prev[k - 1] = table[offsets[k - 1] + 1]
        prev2[k - 1] = table[offsets[k - 1]]
        m = np.arange(k)
        a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
        b = np.sqrt((2.0 * n + 1.0) / (2.0 * n - 3.0)
                    * ((n - 1.0) ** 2 - m * m) / (n * n - m * m))
        row = np.multiply(a[:, None], cos_t, out=work[:k])
        row *= prev[:k]
        older = prev2[:k]
        older *= b[:, None]
        np.subtract(row, older, out=older)  # a cos(theta) Lbar_{n-1,m} - b Lbar_{n-2,m}
        table[offsets[m] + n - m] = older
        prev, prev2 = prev2, prev  # degree n becomes n - 1
    return table


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


@dataclass(eq=False)
class SphereGrid:
    """Gauss-Legendre x uniform grid on S^2 with quadrature weights."""

    n_theta: int
    n_phi: int
    theta: np.ndarray = field(init=False, repr=False)
    phi: np.ndarray = field(init=False, repr=False)
    theta_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_theta < 1 or self.n_phi < 1:
            raise ValueError("grid sizes must be positive")
        nodes, weights = np.polynomial.legendre.leggauss(self.n_theta)
        # leggauss returns ascending cos(theta); store theta ascending instead
        self.theta = np.arccos(nodes[::-1])
        self.theta_weights = weights[::-1].copy()
        self.phi = 2.0 * math.pi * np.arange(self.n_phi) / self.n_phi
        self._basis_tables: dict[int, np.ndarray] = {}
        self._phase_tables: dict[int, np.ndarray] = {}

    @property
    def phi_weight(self) -> float:
        return 2.0 * math.pi / self.n_phi

    def weights(self) -> np.ndarray:
        """Full quadrature weight matrix, summing to 4 pi."""
        return np.outer(self.theta_weights, np.full(self.n_phi, self.phi_weight))

    def integrate(self, values: np.ndarray) -> float:
        return float(self.theta_weights @ values.sum(axis=1)) * self.phi_weight

    def basis_table(self, kappa: int) -> np.ndarray:
        """Cached normalized Legendre table at this grid's colatitudes.

        Raises ValueError, before allocating, if the table would not fit in
        physical memory.
        """
        if kappa not in self._basis_tables:
            nbytes = (kappa + 1) * (kappa + 2) // 2 * self.n_theta * 8
            memory = _physical_memory()
            if memory is not None and nbytes > memory:
                raise ValueError(
                    f"the Legendre table for kappa={kappa} on n_theta={self.n_theta} "
                    f"colatitudes needs {nbytes / 1e9:.1f} GB, more than the "
                    f"{memory / 1e9:.1f} GB of physical memory")
            self._basis_tables[kappa] = normalized_legendre_table(kappa, self.theta)
        return self._basis_tables[kappa]

    def phase_table(self, kappa: int) -> np.ndarray:
        """Cached phi factors of the real basis, shape (2 (kappa + 1), n_phi).

        Row 2m is c_m cos(m phi) and row 2m + 1 is c_m sin(m phi), with c_0 = 1
        and c_m = sqrt(2); the first 2 (k + 1) rows cover the orders m <= k.
        """
        if kappa not in self._phase_tables:
            m_phi = np.outer(np.arange(kappa + 1), self.phi)
            table = np.empty((2 * (kappa + 1), self.n_phi))
            table[0::2] = np.cos(m_phi)
            table[1::2] = np.sin(m_phi)
            table[2:] *= math.sqrt(2.0)
            self._phase_tables[kappa] = table
        return self._phase_tables[kappa]


@dataclass(eq=False)
class GridField:
    """Real values sampled on a SphereGrid."""

    values: np.ndarray
    grid: SphereGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_theta, self.grid.n_phi):
            raise ValueError(
                f"values have shape {self.values.shape}, grid expects "
                f"({self.grid.n_theta}, {self.grid.n_phi})"
            )


def synthesize(coeffs: CoefficientField, grid: SphereGrid) -> GridField:
    """Evaluate a coefficient field pointwise on the grid (S^2 only).

    The single-shell case of synthesize_tails.  Cost: the theta sums are
    O(kappa^2 n_theta), the phi sums one O(n_theta kappa n_phi) product.
    """
    (values,) = synthesize_tails(coeffs, grid, [-1])
    return GridField(values, grid)


def _packed_coefficients(data: np.ndarray, kappa: int) -> np.ndarray:
    """Cos (row 0) and sin (row 1) coefficients in the Legendre table's row order."""
    offsets = _pair_offsets(kappa)
    m = np.repeat(np.arange(kappa + 1), np.diff(offsets))
    ell = np.arange(offsets[-1]) - offsets[m] + m
    cos_index = ell * ell + np.maximum(2 * m - 1, 0)
    packed = np.zeros((2, offsets[-1]))
    packed[0] = data[cos_index]
    packed[1, offsets[1]:] = data[cos_index[offsets[1]:] + 1]
    return packed


def synthesize_tails(coeffs: CoefficientField, grid: SphereGrid,
                     kappas: Sequence[int]) -> Iterator[np.ndarray]:
    """Grid values of the tails above each of the increasing `kappas`, largest first.

    The tail above k keeps the degrees k < ell <= coeffs.kappa; every k must
    lie below coeffs.kappa, and k = -1 gives the whole field.  The degrees
    are split into shells (kappas[j], kappas[j + 1]] and (kappas[-1],
    coeffs.kappa].  One pass over the orders m forms every shell's theta
    profiles from the grid's cached Legendre table.  The shells are then
    added from the top into one running (n_theta, n_phi) array, each with one
    product against the grid's cached phase table, of which a shell with top
    degree k uses the first 2 (k + 1) rows.  The running array is yielded
    after each shell and overwritten by the next, so reduce or copy it before
    advancing.  Degrees at or below kappas[0] are never touched.

    Cost per field: theta O(kappa^2 n_theta) once; phi O(n_theta kappa n_phi)
    for the top shell plus O(n_theta k n_phi) for each lower shell of top k.
    """
    if coeffs.dim != 3:
        raise ValueError(f"pointwise synthesis is available for dim == 3 only, got dim={coeffs.dim}")
    kappa = coeffs.kappa
    if kappa > MAX_SYNTHESIS_BAND:
        raise ValueError(f"band limit {kappa} exceeds synthesis maximum {MAX_SYNTHESIS_BAND}")
    bottoms = [int(k) for k in kappas]
    if not bottoms or any(b <= a for a, b in zip(bottoms, bottoms[1:])) or bottoms[-1] >= kappa:
        raise ValueError(f"kappas must be strictly increasing and below the band limit "
                         f"{kappa}, got {bottoms}")
    shells = list(zip(bottoms, bottoms[1:] + [kappa]))
    table = grid.basis_table(kappa)
    phase = grid.phase_table(kappa)
    offsets = _pair_offsets(kappa)
    packed = _packed_coefficients(coeffs.data, kappa)
    # profiles[j][2m], [2m + 1]: sum over shell j's degrees of c_cos Lbar, c_sin Lbar
    profiles = [np.zeros((2 * (hi + 1), grid.n_theta)) for _, hi in shells]
    for m in range(kappa + 1):
        block = table[offsets[m]:offsets[m + 1]]
        coef = packed[:, offsets[m]:offsets[m + 1]]
        for (lo, hi), profile in zip(shells, profiles):
            start, stop = max(lo + 1 - m, 0), hi + 1 - m  # rows of degrees in the shell
            if stop > start:
                profile[2 * m:2 * m + 2] = coef[:, start:stop] @ block[start:stop]
    values = np.zeros((grid.n_theta, grid.n_phi))
    for (_, hi), profile in reversed(list(zip(shells, profiles))):
        values += profile.T @ phase[:2 * (hi + 1)]
        yield values


def grid_l2_norm(f: GridField) -> float:
    """L^2 norm via the grid quadrature weights."""
    return math.sqrt(max(f.grid.integrate(f.values**2), 0.0))


def grid_max_abs(f: GridField) -> float:
    return float(np.max(np.abs(f.values)))
