"""Angular power spectra of the driving noise and Sobolev-regular random data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modes import CoefficientField, degree_sizes, laplacian_eigenvalue, mode_count, mode_degrees


@dataclass(frozen=True)
class PowerSpectrum:
    """Power-law angular power spectrum A_ell with a flat head.

    A_0 = head_value, A_ell = scale * ell0^(-alpha) for 0 < ell < ell0 and
    scale * ell^(-alpha) for ell >= ell0.  Rates of all downstream experiments
    depend only on the algebraic tail; head values are reported in output
    metadata.  scale = 0 gives the zero spectrum (deterministic equations).
    """

    alpha: float
    scale: float = 1.0
    ell0: int = 1
    head_value: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"decay exponent must be positive, got {self.alpha}")
        if self.scale < 0 or self.head_value < 0:
            raise ValueError("spectrum values must be non-negative")
        if self.ell0 < 1:
            raise ValueError(f"ell0 must be >= 1, got {self.ell0}")

    def values(self, kappa: int) -> np.ndarray:
        """A_ell for ell = 0..kappa."""
        ells = np.arange(kappa + 1, dtype=float)
        out = self.scale * np.maximum(ells, self.ell0) ** (-self.alpha)
        out[0] = self.head_value
        return out


def sobolev_scale(beta: float, kappa: int, dim: int = 3) -> np.ndarray:
    """Per-degree coefficient standard deviation used by random_sobolev_data.

    The scaling (1 + lam)^(-(2 beta + 1)/4) * h(ell, dim)^(-1/2) puts the field on
    the H^beta smoothness boundary: the expected squared tail above degree kappa
    decays like kappa^(-2 beta), so truncating at band kappa exhibits exactly the
    rate beta that H^beta data admits (the expected squared H^beta norm per
    degree falls off like 1/ell).
    """
    lam = np.array([-laplacian_eigenvalue(ell, dim) for ell in range(kappa + 1)])
    sizes = degree_sizes(kappa, dim).astype(float)
    return (1.0 + lam) ** (-(2.0 * beta + 1.0) / 4.0) / np.sqrt(sizes)


def random_sobolev_data(beta: float, kappa: int, rng: np.random.Generator,
                        dim: int = 3) -> CoefficientField:
    """Draw a centered Gaussian field whose truncation error saturates rate beta."""
    if kappa < 0:
        raise ValueError(f"band limit must be non-negative, got {kappa}")
    sigma = sobolev_scale(beta, kappa, dim)[mode_degrees(kappa, dim)]
    data = sigma * rng.standard_normal(mode_count(kappa, dim))
    return CoefficientField(data, kappa, dim)
