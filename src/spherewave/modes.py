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


def laplacian_lambdas(kappa: int, dim: int = 3) -> np.ndarray:
    """lam_ell = ell (ell + dim - 2), minus the Laplace-Beltrami eigenvalue on
    S^{dim-1} at degree ell, for ell = 0..kappa; exact integers below 2**53."""
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


@functools.lru_cache(maxsize=16)
def degree_sizes(kappa: int, dim: int = 3) -> np.ndarray:
    """h(ell, dim) for ell = 0..kappa, exact in int64; read-only, as one array
    serves every caller.

    From the circle's h(ell, 2) (1, then 2), each pass is a cumulative sum,
    h(ell, d) = sum_{j <= ell} h(j, d - 1).  Every partial sum is some
    h(ell, d') <= h(ell, dim), so the first one beyond int64 adds two valid
    values and wraps negative; the passes go on over the degrees before it, and
    with fewer degrees left than passes, each is computed on its own.
    """
    if dim < 3:
        raise ValueError(f"ambient dimension must be >= 3, got {dim}")
    sizes = np.full(kappa + 1, 2, dtype=np.int64)
    sizes[:1] = 1
    for done in range(dim - 2):
        if sizes.size < dim - 2 - done:
            sizes = np.array([harmonic_dimension(ell, dim) for ell in range(sizes.size)],
                             dtype=np.int64)
            break
        sizes = np.cumsum(sizes)
        wrapped = sizes < 0
        if wrapped.any():
            sizes = sizes[:np.argmax(wrapped)]  # the degrees past it are garbage
    if sizes.size <= kappa:
        raise OverflowError(f"harmonic dimension overflows int64 at ell={sizes.size}, dim={dim}")
    sizes.flags.writeable = False
    return sizes


def degree_offsets(kappa: int, dim: int = 3) -> np.ndarray:
    """Start index of each degree block in flat storage (length kappa+1)."""
    sizes = degree_sizes(kappa, dim)
    return np.concatenate(([0], np.cumsum(sizes)[:-1]))


def mode_count(kappa: int, dim: int = 3) -> int:
    """Total number of real coefficients up to band limit kappa, exact: the sum
    of the sizes, each within int64, may not be."""
    degree_sizes(kappa, dim)  # refuses a degree whose size overflows int64
    return math.comb(kappa + dim - 1, dim - 1) + math.comb(kappa + dim - 2, dim - 1)


def mode_degrees(kappa: int, dim: int = 3) -> np.ndarray:
    """Degree of each flat component, length mode_count(kappa, dim)."""
    return np.repeat(np.arange(kappa + 1), degree_sizes(kappa, dim))


def label_in_degree(index, dim: int = 3):
    """(m, component) of the index-th mode of a degree, for an int or an int
    array of indices: the label rule of every coefficient file.

    On S^2 the degree's modes are (0, 0), then (m, 1) (cosine) and (m, 2)
    (sine) for m = 1..ell; for dim > 3 the index-th mode is (index + 1, 0).
    """
    index = np.asarray(index)
    if dim == 3:
        return (index + 1) // 2, np.where(index == 0, 0, 2 - index % 2)
    return index + 1, np.zeros_like(index)


def row_degrees(kappa: int, dim: int, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """The degree of each flat index in `rows` and its index within the degree."""
    offsets, flat = degree_offsets(kappa, dim), np.arange(rows.start, rows.stop)
    ells = np.searchsorted(offsets, flat, side="right") - 1
    return ells, flat - offsets[ells]


def mode_labels(kappa: int, dim: int = 3) -> list[tuple[int, int, int]]:
    """(ell, m, component) label per flat index, by label_in_degree."""
    ells, index = row_degrees(kappa, dim, slice(0, mode_count(kappa, dim)))
    return list(zip(ells.tolist(), *(a.tolist() for a in label_in_degree(index, dim))))


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

    def truncated(self, kappa: int) -> "CoefficientField":
        """Projection onto degrees <= kappa (pad with zeros if kappa is larger)."""
        n = mode_count(kappa, self.dim)
        out = np.zeros(n)
        m = min(n, self.data.size)
        out[:m] = self.data[:m]
        return CoefficientField(out, kappa, self.dim)
