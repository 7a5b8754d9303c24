"""Mode bookkeeping for band-limited expansions on S^{d-1}.

All solver state lives in real coefficients with respect to the orthonormal
real basis.  For the unit sphere in R^3 the basis of degree ell contains the
zonal function, then cosine/sine pairs for orders m = 1..ell; for higher
ambient dimension d the eigenspace of degree ell is an unstructured block of
h(ell, d) components.  Coefficients are stored flat, degree-major, with the
per-degree layout

    d = 3:   [ (m=0), (cos, m=1), (sin, m=1), ..., (cos, m=ell), (sin, m=ell) ]
    d > 3:   [ h(ell, d) components in fixed but anonymous order ]

so the Euclidean norm of the storage equals the L^2 norm of the field.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


def laplacian_eigenvalue(ell: int, dim: int = 3) -> float:
    """Eigenvalue of the Laplace-Beltrami operator on S^{dim-1} at degree ell."""
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    if dim < 3:
        raise ValueError(f"ambient dimension must be >= 3, got {dim}")
    return -float(ell * (ell + dim - 2))


def laplacian_lambdas(kappa: int, dim: int = 3) -> np.ndarray:
    """lam_ell = ell (ell + dim - 2) = -laplacian_eigenvalue(ell, dim) for ell = 0..kappa;
    exact integers below 2**53, so bit for bit the scalar function's values."""
    ells = np.arange(kappa + 1, dtype=np.int64)
    return (ells * (ells + dim - 2)).astype(float)


def harmonic_dimension(ell: int, dim: int = 3) -> int:
    """Number of linearly independent degree-ell harmonics on S^{dim-1}."""
    if ell < 0:
        raise ValueError(f"degree must be non-negative, got {ell}")
    if dim < 3:
        raise ValueError(f"ambient dimension must be >= 3, got {dim}")
    if ell == 0:
        return 1
    h = (2 * ell + dim - 2) * math.comb(ell + dim - 3, dim - 3) // (dim - 2)
    if h > np.iinfo(np.int64).max:
        raise OverflowError(f"harmonic dimension overflows int64 at ell={ell}, dim={dim}")
    return h


@functools.lru_cache(maxsize=None)
def _degree_sizes_cached(kappa: int, dim: int) -> tuple[int, ...]:
    return tuple(harmonic_dimension(ell, dim) for ell in range(kappa + 1))


def degree_sizes(kappa: int, dim: int = 3) -> np.ndarray:
    """h(ell, dim) for ell = 0..kappa."""
    return np.array(_degree_sizes_cached(kappa, dim), dtype=np.int64)


def degree_offsets(kappa: int, dim: int = 3) -> np.ndarray:
    """Start index of each degree block in flat storage (length kappa+1)."""
    sizes = degree_sizes(kappa, dim)
    return np.concatenate(([0], np.cumsum(sizes)[:-1]))


def mode_count(kappa: int, dim: int = 3) -> int:
    """Total number of real coefficients up to band limit kappa."""
    return int(degree_sizes(kappa, dim).sum())


def mode_degrees(kappa: int, dim: int = 3) -> np.ndarray:
    """Degree of each flat component, length mode_count(kappa, dim)."""
    return np.repeat(np.arange(kappa + 1), degree_sizes(kappa, dim))


def mode_labels(kappa: int, dim: int = 3) -> list[tuple[int, int, int]]:
    """(ell, m, component) label per flat index.

    For dim == 3 the component is 0 for m = 0, 1 for cosine, 2 for sine.
    For dim > 3 the label is (ell, j, 0) with j = 1..h(ell, dim).
    """
    labels = []
    for ell in range(kappa + 1):
        if dim == 3:
            labels.append((ell, 0, 0))
            for m in range(1, ell + 1):
                labels.append((ell, m, 1))
                labels.append((ell, m, 2))
        else:
            for j in range(1, harmonic_dimension(ell, dim) + 1):
                labels.append((ell, j, 0))
    return labels


@dataclass(eq=False)
class CoefficientField:
    """Real coefficients of a band-limited expansion on S^{dim-1}."""

    data: np.ndarray
    kappa: int
    dim: int = 3

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        expected = mode_count(self.kappa, self.dim)
        if self.data.shape != (expected,):
            raise ValueError(
                f"coefficient storage has shape {self.data.shape}, "
                f"expected ({expected},) for kappa={self.kappa}, dim={self.dim}"
            )

    @classmethod
    def zeros(cls, kappa: int, dim: int = 3) -> "CoefficientField":
        return cls(np.zeros(mode_count(kappa, dim)), kappa, dim)

    def copy(self) -> "CoefficientField":
        return CoefficientField(self.data.copy(), self.kappa, self.dim)

    def truncated(self, kappa: int) -> "CoefficientField":
        """Projection onto degrees <= kappa (pad with zeros if kappa is larger)."""
        n = mode_count(kappa, self.dim)
        out = np.zeros(n)
        m = min(n, self.data.size)
        out[:m] = self.data[:m]
        return CoefficientField(out, kappa, self.dim)
